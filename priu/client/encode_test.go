package client

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/par"
	"repro/priu"
	"repro/priu/service"
)

// edgeFloats are the values whose encoding/json format is easy to get
// wrong: both zeros, the 'f'/'e' switch points, subnormals and the largest
// float.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 1e21, 1e20,
	999999999999999999999, 5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	1e-9, 123456789, 0.1, 1.0 / 3,
}

func randFloat(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return edgeFloats[rng.Intn(len(edgeFloats))]
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
}

// randRequest is a random dense or CSR request; about half its omitempty
// fields are zero, and the strings need escaping.
func randRequest(rng *rand.Rand, n int) service.CreateSessionRequest {
	req := service.CreateSessionRequest{
		Family: []string{"logistic", "<&>\u2028\"\\\x01é", ""}[rng.Intn(3)],
		Eta:    randFloat(rng), Lambda: randFloat(rng),
		BatchSize: rng.Intn(3) * 100, Iterations: rng.Intn(3) * 7, Seed: rng.Int63() - rng.Int63(),
	}
	if rng.Intn(2) == 0 {
		req.Classes, req.Cols, req.Mode, req.Epsilon = 3, -4, "svd</script>", randFloat(rng)
	}
	if rng.Intn(3) > 0 {
		req.Labels = make([]float64, n)
		for i := range req.Labels {
			req.Labels[i] = randFloat(rng)
		}
	}
	if rng.Intn(2) == 0 {
		m := 1 + rng.Intn(40)
		req.Features = make([][]float64, n)
		for i := range req.Features {
			if rng.Intn(20) == 0 {
				continue // a null row
			}
			req.Features[i] = make([]float64, m-rng.Intn(2))
			for j := range req.Features[i] {
				req.Features[i][j] = randFloat(rng)
			}
		}
		return req
	}
	req.Indptr = []int{0}
	for i := 0; i < n; i++ {
		for k := rng.Intn(4); k > 0; k-- {
			req.Indices = append(req.Indices, rng.Intn(1<<20)-1)
			req.Values = append(req.Values, randFloat(rng))
		}
		req.Indptr = append(req.Indptr, len(req.Values))
	}
	return req
}

// TestEncodeCreateMatchesMarshal checks the encoder against json.Marshal
// byte for byte on random dense and CSR requests, small and large enough to
// be formatted in several chunks on 4 workers.
func TestEncodeCreateMatchesMarshal(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(4))
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(6)
		if trial%20 == 0 {
			n = 5000 + rng.Intn(5000)
		}
		req := randRequest(rng, n)
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		pieces, err := encodeCreate(&req)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Join(pieces, nil); !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("trial %d: encodings differ at byte %d:\n got  %.80q\n want %.80q", trial, i, got[i:], want[i:])
		}
		if n >= 5000 && len(req.Features) > 0 && len(pieces) < 3 {
			t.Fatalf("trial %d: %d rows went out in %d pieces; want several chunks", trial, n, len(pieces))
		}
	}
	// The zero request and empty (non-nil) slices.
	for _, req := range []service.CreateSessionRequest{{}, {Labels: []float64{}, Features: [][]float64{}, Values: []float64{}}} {
		want, _ := json.Marshal(req)
		pieces, err := encodeCreate(&req)
		if got := bytes.Join(pieces, nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%+v: got %q, %v; want %q", req, got, err, want)
		}
	}
}

// TestCreateSessionRefusesNonFinite checks that a NaN or ±Inf anywhere in
// a request fails CreateSession with encoding/json's error before any
// request reaches the server.
func TestCreateSessionRefusesNonFinite(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "unexpected request", http.StatusTeapot)
	}))
	defer ts.Close()
	cl := New(ts.URL)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field, set := range map[string]func(*service.CreateSessionRequest){
			"features": func(r *service.CreateSessionRequest) { r.Features[1][2] = bad },
			"labels":   func(r *service.CreateSessionRequest) { r.Labels[3] = bad },
			"values":   func(r *service.CreateSessionRequest) { r.Values = []float64{1, bad} },
			"eta":      func(r *service.CreateSessionRequest) { r.Eta = bad },
			"lambda":   func(r *service.CreateSessionRequest) { r.Lambda = bad },
			"epsilon":  func(r *service.CreateSessionRequest) { r.Epsilon = bad },
		} {
			req := randRequest(rand.New(rand.NewSource(2)), 4)
			req.Features = [][]float64{{1, 2, 3}, {4, 5, 6}}
			req.Labels = []float64{1, 2, 3, 4}
			set(&req)
			_, want := json.Marshal(req)
			_, err := cl.CreateSession(context.Background(), req)
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Fatalf("%v in %s: err %v, json.Marshal says %v", bad, field, err, want)
			}
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("%d requests reached the server", n)
	}
}

var benchPieces [][]byte

// BenchmarkCreateEncode is the client half of a create's layer 1: encoding
// a CreateSessionRequest at commit-hot's shape (n = 20000, m = 32).
func BenchmarkCreateEncode(b *testing.B) {
	d, err := priu.GenerateBinary("logistic-opt", 20000, 32, 1.0, 1)
	if err != nil {
		b.Fatal(err)
	}
	req := service.CreateSessionRequest{Family: "logistic-opt", Labels: d.Y, Eta: 0.05, Lambda: 0.01, BatchSize: 200, Iterations: 60, Seed: 1}
	req.Features = make([][]float64, d.X.Rows())
	for i := range req.Features {
		req.Features[i] = d.X.Row(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchPieces, err = encodeCreate(&req); err != nil {
			b.Fatal(err)
		}
	}
	var n int
	for _, p := range benchPieces {
		n += len(p)
	}
	b.ReportMetric(float64(n), "body_bytes")
}
