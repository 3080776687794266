// Command priublob runs the shared blob tier of a priuserve fleet: a small
// HTTP object server over a directory, speaking the store.BlobStore wire
// protocol (see store.HTTPBlob).
//
// Usage:
//
//	priublob -addr :8090 -dir /var/lib/priublob -admin-addr 127.0.0.1:9091
//
// Endpoints:
//
//	PUT    /blob?key=K     store the request body under K
//	GET    /blob?key=K     fetch K (404 when absent)
//	DELETE /blob?key=K     remove K (idempotent)
//	GET    /blobs?prefix=P list stored objects
//	GET    /healthz        liveness probe
//
// Objects are written temp-file + rename, so concurrent readers (and a crash
// mid-put) never observe a torn object; at start the server removes temp
// files at least a minute old, the partial uploads a killed server left.
// Keys are opaque strings — priuserve replicas use session storage IDs —
// escaped into flat file names.
//
// Point every replica's -blob flag at this server and the local spill
// directories become read-through/write-behind caches of it: any replica can
// restore any session, which is what lets the fleet survive a node loss.
//
// -admin-addr boots a second, operator-only listener serving GET /metrics
// (request counts and latency by method and status) and /debug/pprof/*. Bind
// it to localhost or an internal interface, never the data port.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/priu/obs"
	"repro/priu/store"
)

// statusWriter captures the response status for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument counts every blob request by method and status and records its
// latency by method.
func instrument(reg *obs.Registry, next http.Handler) http.Handler {
	reqs := reg.CounterVec("priu_blobserver_requests_total",
		"Blob server requests by method and status code.", "method", "code")
	secs := reg.HistogramVec("priu_blobserver_request_seconds",
		"Blob server request duration by method.", nil, "method")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		secs.With(r.Method).Observe(time.Since(start).Seconds())
		reqs.With(r.Method, strconv.Itoa(sw.status)).Inc()
	})
}

func adminHandler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	dir := flag.String("dir", "", "object directory (required)")
	adminAddr := flag.String("admin-addr", "", "operator listener for /metrics and /debug/pprof (empty = disabled; never expose publicly)")
	flag.Parse()
	if *dir == "" {
		log.Fatal("priublob: -dir is required")
	}
	bs, err := store.NewFSBlob(*dir)
	if err != nil {
		log.Fatal(err)
	}
	reg := obs.NewRegistry()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Addr: *addr, Handler: instrument(reg, store.BlobHandler(bs))}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	var admin *http.Server
	if *adminAddr != "" {
		admin = &http.Server{Addr: *adminAddr, Handler: adminHandler(reg)}
		go func() {
			if err := admin.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- err
			}
		}()
		log.Printf("priublob: admin listener on %s (/metrics, /debug/pprof)", *adminAddr)
	}
	log.Printf("priublob listening on %s (dir=%s)", *addr, *dir)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("priublob: shutdown: %v", err)
	}
	if admin != nil {
		if err := admin.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("priublob: admin shutdown: %v", err)
		}
	}
	log.Printf("priublob: shutdown complete")
}
