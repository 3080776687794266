package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/par"
	"repro/priu"
)

// sameBits reports where a and b differ: nil-ness and length of every
// slice, every float bit for bit (so -0 and 0 differ), everything else by ==.
func sameBits(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: nil %v len %d vs nil %v len %d", path, a.IsNil(), a.Len(), b.IsNil(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := sameBits(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := sameBits(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	default:
		if !a.Equal(b) {
			return fmt.Sprintf("%s: %v vs %v", path, a, b)
		}
	}
	return ""
}

// checkDecode decodes body with the service's decoder and with
// encoding/json's Decoder, into fresh values of the same type: both must
// fail, or both succeed with the same bits.
func checkDecode[T any](t *testing.T, body []byte, decode func([]byte, *T) error) {
	t.Helper()
	var got, want T
	errGot := decode(body, &got)
	errWant := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%T on %q: decoder err %v, encoding/json err %v", got, body, errGot, errWant)
	}
	if errGot == nil {
		if d := sameBits(reflect.ValueOf(got), reflect.ValueOf(want), reflect.TypeOf(got).Name()); d != "" {
			t.Fatalf("%T on %q: %s", got, body, d)
		}
	}
}

// checkRows runs the features-array parser alone on body with 1 to 5
// pieces against encoding/json decoding the same bytes into a fresh
// [][]float64; pieces cut on a tiny body land past the array too.
func checkRows(t *testing.T, body []byte) {
	t.Helper()
	if len(body) == 0 || body[0] != '[' {
		return
	}
	var want [][]float64
	errWant := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	for n := 1; n <= 5; n++ {
		got, _, errGot := rowsFresh(body, 0, n)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("rows on %q, %d pieces: decoder err %v, encoding/json err %v", body, n, errGot, errWant)
		}
		if errGot == nil {
			if d := sameBits(reflect.ValueOf(got), reflect.ValueOf(want), "features"); d != "" {
				t.Fatalf("rows on %q, %d pieces: %s", body, n, d)
			}
		}
	}
}

// decodeSeeds are the shapes the decoder must treat exactly as
// encoding/json does.
var decodeSeeds = []string{
	`{"family":"logistic","features":[[1,2],[3,4]],"labels":[1,-1],"eta":0.01,"lambda":0.05,"batch_size":2,"iterations":3,"seed":7}`,
	" \t\n{ \"family\" : \"linear\" ,\r\n \"features\" : [ [ 1 , 2 ] , [ 3 , 4 ] ] , \"labels\" : [ 1 , 2 ] } \n",
	`{"FEATURES":[[1]],"Labels":[2],"FaMiLy":"linear","ſeed":4}`,
	`{"features":[[1]],"labels":[2],"kind":"linear"}`,
	`{"\u0066eatures":[[1]],"l\u0061BELS":[2],"\"family\"":"x","k\u0131nd":"y"}`,
	`{"features":[[1,2,3]],"features":[[5]],"features":[[null,null,null]]}`,
	`{"labels":[1,2,3],"labels":[null,null],"labels":[null,null,null,null]}`,
	`{"indptr":[0,1,2],"indptr":[null,5],"indices":[],"indices":[null]}`,
	`{"features":null,"labels":null,"indptr":null,"values":null}`,
	`{"features":[null,[],[null,1],[2,null]],"labels":[null]}`,
	`{"features":[],"labels":[],"values":[],"indices":[]}`,
	`{"features":[[-0,1E+2,1e-400,-0.0e0,123456789012345678901234567890]],"labels":[-0]}`,
	`{"features":[[1e400]]}`,
	`{"features":[[01]]}`,
	`{"features":[[+1]]}`,
	`{"features":[[.5]]}`,
	`{"features":[[1.]]}`,
	`{"labels":[1e-]}`,
	`{"indptr":[0,1.0]}`,
	`{"indices":[1e2]}`,
	`{"indptr":[9223372036854775808]}`,
	`{"indptr":[-0,-9223372036854775808]}`,
	`{"features":[[1,2],[3]],"labels":[1,2]}`,
	`{"features":[[1,2],[3,4]],"labels":[1,`,
	`{"features":[[1,2],[3,4`,
	`{"family":"linear"`,
	`{"family":"linear"} trailing garbage {`,
	`{"family":"linear"}]`,
	`null`, `nullx`, `nul`, `[1]`, `"x"`, `7`, `true`, ``, `   `, `{`, `{}`, `{,}`, `{"a":1,}`,
	`{"features":[[1],]}`, `{"features":[[1,]]}`, `{"features":[,[1]]}`,
	`{"features":[[1]],"unknown":{"a":[1,{"b":null}],"c":"é\n"}}`,
	`{"unknown":"\x01"}`, `{"unknown":"\q"}`, `{"unknown":[1 2]}`,
	`{"features":[["1"]]}`, `{"features":[[[1]]]}`, `{"features":[1]}`, `{"features":{"a":1}}`,
	`{"features":"x"}`, `{"labels":[true]}`, `{"labels":[{}]}`, `{"labels":5}`,
	`{"classes":"3"}`, `{"classes":1.5}`, `{"eta":"x"}`, `{"seed":1e3}`, `{"family":7}`,
	`{"family":null,"classes":null,"eta":null}`, `{"mode":"svd","epsilon":1e-3,"cols":4}`,
	`{"family":"linear\ud800"}`, "{\"family\":\"\xff\"}", "{\"\xffeatures\":[[1]]}",
	`{"features":[[1] , null , [2]]  ,  "labels" : [ 1 , null , 2 ] }`,
	`{"features":[[1]]x}`, `{"features" [[1]]}`, `{"features":[[1]] "labels":[1]}`,
	`[[1,2],[3,4]]`, `[[1,2],null,[3]] garbage [4]`, `[[1],[2]],"labels":[[3],[4]]`, `[]`, `[ ]`,
	// encoding/json's nesting limit, 10000 levels counting the object.
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
}

// FuzzCreateSessionDecode is the decoder's differential check: for any
// body, the create and train decoders and json.NewDecoder(body).Decode
// must both fail, or both succeed with values equal bit for bit. A body
// that starts with '[' also runs the features-array parser alone, cut into
// 1 to 5 pieces.
func FuzzCreateSessionDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, decodeCreate)
		checkDecode(t, body, decodeTrain)
		checkRows(t, body)
	})
}

// TestCreateDecodeSeeds runs every fuzz seed through the differential check
// on each test run.
func TestCreateDecodeSeeds(t *testing.T) {
	for _, s := range decodeSeeds {
		checkDecode(t, []byte(s), decodeCreate)
		checkDecode(t, []byte(s), decodeTrain)
		checkRows(t, []byte(s))
	}
}

// TestCreateDecodeParallelPieces decodes bodies large enough to be cut into
// several pieces on 4 workers: dense uploads with every float format,
// ragged and null rows, whitespace between rows, and labels after or before
// the features.
func TestCreateDecodeParallelPieces(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(4))
	rng := rand.New(rand.NewSource(1))
	vals := []float64{0, math.Copysign(0, -1), 1e-7, 1e21, 5e-324, math.MaxFloat64, -1.5, 3}
	for trial := 0; trial < 6; trial++ {
		n, m := 3000+rng.Intn(2000), 8+rng.Intn(30)
		req := CreateSessionRequest{Family: "logistic", Labels: make([]float64, n), Eta: 0.1, Seed: int64(trial)}
		req.Features = make([][]float64, n)
		for i := range req.Features {
			if trial%2 == 1 && rng.Intn(50) == 0 {
				continue // a null row
			}
			row := make([]float64, m-rng.Intn(2)*trial%3)
			for j := range row {
				if rng.Intn(4) == 0 {
					row[j] = vals[rng.Intn(len(vals))]
				} else {
					row[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
				}
			}
			req.Features[i] = row
			req.Labels[i] = float64(rng.Intn(2)*2 - 1)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if trial >= 3 {
			// Whitespace between rows, labels first, and a trailing key.
			body = bytes.ReplaceAll(body, []byte("],["), []byte("] ,\n\t["))
			body = append([]byte(`{"labels":`+strings.Repeat(" ", trial)+`[1,2],`), body[1:]...)
		}
		if n := min(par.Workers()*4, len(body)/minRowPiece+1); n < 2 {
			t.Fatalf("body of %d bytes is cut into %d pieces; want several", len(body), n)
		}
		checkDecode(t, body, decodeCreate)
		checkDecode(t, body, decodeTrain)
		// Every piece count on the array alone, with the rest of the body
		// after it.
		i := bytes.Index(body, []byte(`"features":`)) + len(`"features":`)
		var want [][]float64
		if err := json.NewDecoder(bytes.NewReader(body[i:])).Decode(&want); err != nil {
			t.Fatal(err)
		}
		for _, pieces := range []int{2, 3, 7, 16} {
			got, _, err := rowsFresh(body, i, pieces)
			if err != nil {
				t.Fatalf("%d pieces: %v", pieces, err)
			}
			if d := sameBits(reflect.ValueOf(got), reflect.ValueOf(want), "features"); d != "" {
				t.Fatalf("%d pieces: %s", pieces, d)
			}
		}
	}
}

// TestCreateDecodeRowsShareOneArray checks the decoded features are views
// of one row-major array, each capped at its own length except the first,
// whose capacity is the whole array.
func TestCreateDecodeRowsShareOneArray(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(4))
	req := CreateSessionRequest{Features: make([][]float64, 20000), Labels: make([]float64, 20000)}
	for i := range req.Features {
		req.Features[i] = []float64{float64(i), 0.5, -float64(i) / 3}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var got CreateSessionRequest
	if err := decodeCreate(body, &got); err != nil {
		t.Fatal(err)
	}
	base := &got.Features[0][0]
	for i, row := range got.Features {
		wantCap := 3
		if i == 0 {
			wantCap = 3 * len(got.Features)
		}
		if len(row) != 3 || cap(row) != wantCap || &row[0] != &unsafe.Slice(base, 3*len(got.Features))[3*i] {
			t.Fatalf("row %d is not the flat array's view at %d", i, 3*i)
		}
	}
}

// TestCreateDenseDataTakesDecodedArray checks a dense create keeps the
// decoder's row-major array as the design matrix, and copies every other
// shape of rows: a repeated features key (reused in place, or outgrowing
// its slots) and rows encoding/json decoded. Either way the matrix holds
// the bits encoding/json decodes.
func TestCreateDenseDataTakesDecodedArray(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(4))
	hot := hotCreateRequest(t, 2000, 8)
	hotBody, err := json.Marshal(hot)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		body   []byte
		shared bool
	}{
		{"fresh", hotBody, true},
		{"repeated key, same shape", []byte(`{"features":[[1,2],[3,4]],"features":[[5,6],[7,8.5]],"labels":[0,1]}`), false},
		{"repeated key, longer rows", []byte(`{"features":[[1,2],[3,4]],"features":[[5,6,7],[8,9,10.5]],"labels":[0,1]}`), false},
		{"repeated key, more rows", []byte(`{"features":[[1,2]],"features":[[5,6],[7,8],[9,10]],"labels":[0,1,0]}`), false},
	} {
		var got, want CreateSessionRequest
		if err := decodeCreate(tc.body, &got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := json.Unmarshal(tc.body, &want); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		gotD, err := datasetFromRequest(dataset.Regression, got.Features, got.Labels, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantD, err := datasetFromRequest(dataset.Regression, want.Features, want.Labels, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		gotX, wantX := gotD.X.Data(), wantD.X.Data()
		if d := sameBits(reflect.ValueOf(gotX), reflect.ValueOf(wantX), "data"); d != "" {
			t.Fatalf("%s: %s", tc.name, d)
		}
		if shared := &gotX[0] == &got.Features[0][0]; shared != tc.shared {
			t.Fatalf("%s: matrix shares the decoded rows = %v, want %v", tc.name, shared, tc.shared)
		}
		if &wantX[0] == &want.Features[0][0] {
			t.Fatalf("%s: rows encoding/json decoded were not copied", tc.name)
		}
	}
}

// hotCreateRequest is a create request at commit-hot's shape: n rows of m
// features from the same generator perfbench uses.
func hotCreateRequest(tb testing.TB, n, m int) CreateSessionRequest {
	d, err := priu.GenerateBinary("logistic-opt", n, m, 1.0, 1)
	if err != nil {
		tb.Fatal(err)
	}
	req := CreateSessionRequest{Family: "logistic-opt", Labels: d.Y, Eta: 0.05, Lambda: 0.01, BatchSize: 200, Iterations: 60, Seed: 1}
	req.Features = make([][]float64, n)
	for i := range req.Features {
		req.Features[i] = d.X.Row(i)
	}
	return req
}

var benchDecoded CreateSessionRequest

// BenchmarkCreateDecode is layer 1 of a create: reading a POST /v2/sessions
// body and decoding it, at commit-hot's shape (m = 32) and a quarter of its
// rows, so allocs/op can be compared across n.
func BenchmarkCreateDecode(b *testing.B) {
	for _, n := range []int{5000, 20000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			body, err := json.Marshal(hotCreateRequest(b, n, 32))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := &http.Request{Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body))}
				benchDecoded = CreateSessionRequest{}
				buf, err := readBody(r)
				if err == nil {
					err = decodeCreate(buf, &benchDecoded)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
