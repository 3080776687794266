package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/priu/client"
	"repro/priu/obs"
	"repro/priu/service"
	"repro/priu/store"
)

// The service workloads run one in-process priu/service server on a loopback
// listener, configured as priuserve's defaults except where a workload says
// otherwise: a tiered store in a fresh spill directory with write-behind,
// coalescing and compaction at their defaults, AuthRequired with one tenant
// that has no quotas or rate limits, no fleet, and the par cutoffs at the
// library's static default.

const (
	tenantName = "bench"
	apiKey     = "ak_perfbench"
)

// Defaults of cmd/priuserve's flags that the store takes.
const (
	spillQueue    = 256
	spillWorkers  = 1
	spillCoalesce = 1
	spillQuiet    = 50 * time.Millisecond
	spillCompact  = 8
	spillGCAge    = time.Hour
	spillGCEvery  = time.Minute
	whatifLimit   = 8
	slowOp        = 250 * time.Millisecond
)

// span is one timed call across a layer boundary, recorded from outside the
// program. Store spans carry no request ID (the store API has none); they are
// linked to the operation that caused them by session ID and time
// containment.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    string `json:"req,omitempty"`
	Sess   string `json:"session,omitempty"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory while on; it is off for the untraced
// measurement, where every wrapper costs one atomic load.
type recorder struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  atomic.Int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return t.Sub(r.t0).Nanoseconds() }

func (r *recorder) add(s span) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// addOp records one operation as a root span and returns its ID (0 when
// recording is off), for child spans to name as their parent.
func (r *recorder) addOp(name, sess, req string, start, end time.Time) int {
	if !r.on.Load() {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := span{ID: len(r.spans) + 1, Name: name, Layer: "op", Start: r.since(start), End: r.since(end), Req: req, Sess: sess}
	r.spans = append(r.spans, s)
	return s.ID
}

func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// reqID mints a request ID in the shape the server adopts as its trace ID.
func (r *recorder) reqID() string { return fmt.Sprintf("bench%011x", r.next.Add(1)) }

type reqKey struct{}

func withReq(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqKey{}, id)
}

// tracingTransport stamps the caller's request ID as the X-Priu-Trace header
// and counts the bytes that cross the wire in both directions on deletion
// streams.
type tracingTransport struct {
	base  http.RoundTripper
	bytes *atomic.Int64
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(reqKey{}).(string); ok {
		req = req.Clone(req.Context())
		req.Header.Set(obs.TraceHeader, id)
	}
	if !strings.HasSuffix(req.URL.Path, "/deletions") {
		return t.base.RoundTrip(req)
	}
	if req.Body != nil {
		req.Body = &countingBody{ReadCloser: req.Body, n: t.bytes}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// handlerProbe times every request the server handles.
type handlerProbe struct {
	next http.Handler
	rec  *recorder
}

func (h handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	name := "handler"
	if strings.HasSuffix(r.URL.Path, "/deletions") {
		name = "handler.stream"
	}
	h.rec.add(span{Name: name, Layer: "service", Start: h.rec.since(start), End: h.rec.since(time.Now()),
		Req: r.Header.Get(obs.TraceHeader), Sess: sessionOfPath(r.URL.Path)})
}

func sessionOfPath(p string) string {
	const pre = "/v2/sessions/"
	if !strings.HasPrefix(p, pre) {
		return ""
	}
	id := p[len(pre):]
	if i := strings.IndexByte(id, '/'); i >= 0 {
		id = id[:i]
	}
	return id
}

// storeProbe decorates the tiered store: it counts and (when tracing) times
// every call the service makes into it.
type storeProbe struct {
	store.Store
	rec  *recorder
	gets atomic.Int64
}

func (p *storeProbe) timed(name, id string, start time.Time) {
	p.rec.add(span{Name: name, Layer: "store", Start: p.rec.since(start), End: p.rec.since(time.Now()), Sess: store.LocalID(id)})
}

func (p *storeProbe) Get(id string) (*store.Session, bool) {
	p.gets.Add(1)
	if !p.rec.on.Load() {
		return p.Store.Get(id)
	}
	start := time.Now()
	s, ok := p.Store.Get(id)
	p.timed("store.get", id, start)
	return s, ok
}

func (p *storeProbe) Put(sess *store.Session) error {
	if !p.rec.on.Load() {
		return p.Store.Put(sess)
	}
	start := time.Now()
	err := p.Store.Put(sess)
	p.timed("store.put", sess.ID, start)
	return err
}

func (p *storeProbe) Delete(id string) bool {
	if !p.rec.on.Load() {
		return p.Store.Delete(id)
	}
	start := time.Now()
	ok := p.Store.Delete(id)
	p.timed("store.delete", id, start)
	return ok
}

// server is one in-process deletion service on a loopback port.
type server struct {
	dir    string
	tiered *store.Tiered
	probe  *storeProbe
	reg    *obs.Registry
	hs     *http.Server
	done   chan struct{}
	url    string
	rec    *recorder
	wire   atomic.Int64
}

// startServer boots a server whose spill directory lives under dir.
// maxResident bounds the resident tier (0 = unbounded, priuserve's default).
func startServer(dir string, maxResident int, rec *recorder) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	keys := filepath.Join(dir, "keys.json")
	sum := sha256.Sum256([]byte(apiKey))
	kb, _ := json.Marshal(map[string]any{"tenants": []service.TenantConfig{{Name: tenantName, KeySHA256: hex.EncodeToString(sum[:])}}})
	if err := os.WriteFile(keys, kb, 0o600); err != nil {
		return nil, err
	}
	keyring, err := service.LoadKeyring(keys)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	fine := fineBuckets()
	tm := &store.TierMetrics{
		SpillSeconds:      reg.Histogram("priu_store_spill_seconds", "Full spill publish duration.", fine),
		FsyncSeconds:      reg.Histogram("priu_store_fsync_seconds", "Fsync inside the spill write.", fine),
		RestoreSeconds:    reg.Histogram("priu_store_restore_seconds", "Full restore duration.", fine),
		CompactionSeconds: reg.Histogram("priu_store_compaction_seconds", "Delta-chain compaction duration.", fine),
	}
	mem := store.NewMemory(store.WithMaxSessions(maxResident), store.WithTenantLimits(keyring.Limits))
	tiered, err := store.NewTiered(filepath.Join(dir, "spill"), mem,
		store.WithSpillOnEvict(true),
		store.WithWriteBehind(spillQueue, spillWorkers),
		store.WithSpillCoalesce(spillCoalesce, spillQuiet),
		store.WithCompaction(spillCompact),
		store.WithSpillGC(spillGCAge, spillGCEvery),
		store.WithMetrics(tm),
	)
	if err != nil {
		return nil, err
	}
	probe := &storeProbe{Store: tiered, rec: rec}
	tracer := obs.NewTracer(0)
	tracer.SetSlowOp(slowOp)
	srv := service.NewServer(
		service.WithStore(probe),
		service.WithMaxSessions(maxResident),
		service.WithWhatIfLimit(whatifLimit),
		service.WithAuth(service.AuthRequired, keyring),
		service.WithObservability(reg, tracer),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tiered.Close()
		return nil, err
	}
	s := &server{dir: dir, tiered: tiered, probe: probe, reg: reg, rec: rec, done: make(chan struct{}),
		url: "http://" + ln.Addr().String()}
	s.hs = &http.Server{Handler: handlerProbe{next: srv.Handler(), rec: rec}}
	go func() {
		defer close(s.done)
		if err := s.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
		}
	}()
	return s, nil
}

// client returns an SDK client with its own connection pool, so each load
// generator uses its own connections.
func (s *server) client() *client.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
	hc := &http.Client{Transport: &tracingTransport{base: tr, bytes: &s.wire}}
	return client.New(s.url, client.WithAPIKey(apiKey), client.WithHTTPClient(hc))
}

// stop shuts the listener down, waits for the serve goroutine, drains the
// store's background work and removes the spill directory.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	if cerr := s.tiered.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// spillDirBytes sums the regular files under the spill directory.
func (s *server) spillDirBytes() int64 {
	var n int64
	_ = filepath.Walk(filepath.Join(s.dir, "spill"), func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
