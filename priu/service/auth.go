package service

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/priu/store"
)

// Multi-tenant authentication: callers present an API key as
// "Authorization: Bearer <key>"; the keyring resolves it to a Tenant, which
// the middleware threads through the request context. Every session a tenant
// creates lives in its own store namespace (store IDs are "tenant/sess-N"),
// so tenants cannot see, list, delete or snapshot each other's sessions, and
// the tenant's quota (max sessions / bytes) and deletion-stream rate limit
// ride on the same record. The key file is JSON and hot-reloadable (SIGHUP
// in cmd/priuserve), and key comparison is constant-time over SHA-256
// digests.

// AuthMode selects how strictly the service requires API keys.
type AuthMode int

const (
	// AuthOff ignores Authorization headers entirely: every caller is the
	// anonymous tenant. The pre-tenant behavior.
	AuthOff AuthMode = iota
	// AuthOptional resolves presented keys to tenants and rejects unknown
	// keys, but callers without a key proceed as the anonymous tenant.
	AuthOptional
	// AuthRequired rejects every request without a valid key (401), on /v1
	// and /v2 alike. /healthz stays open for load-balancer probes.
	AuthRequired
)

// ParseAuthMode maps the -auth flag value to an AuthMode.
func ParseAuthMode(s string) (AuthMode, error) {
	switch s {
	case "off":
		return AuthOff, nil
	case "", "optional":
		return AuthOptional, nil
	case "required":
		return AuthRequired, nil
	default:
		return 0, fmt.Errorf("unknown auth mode %q (off|optional|required)", s)
	}
}

// TenantConfig is one tenant's record in the -auth-keys file:
//
//	{"tenants": [{"name": "acme", "key": "ak_...", "max_sessions": 100,
//	              "max_bytes": 1073741824, "deletion_rows_per_sec": 1000,
//	              "burst": 2000}]}
//
// Zero-valued limits are unlimited. Burst defaults to one second's worth of
// rows (at least 1) when a rate is set.
type TenantConfig struct {
	Name string `json:"name"`
	// Key is the plaintext API key. Prefer KeySHA256: plaintext entries
	// still resolve but are warned about at load, since anyone who reads
	// the key file can impersonate the tenant.
	Key string `json:"key,omitempty"`
	// KeySHA256 is the at-rest form: the lowercase hex SHA-256 of the API
	// key (64 characters). Exactly one of Key and KeySHA256 must be set.
	KeySHA256   string `json:"key_sha256,omitempty"`
	MaxSessions int    `json:"max_sessions,omitempty"`
	MaxBytes    int64  `json:"max_bytes,omitempty"`
	// MaxSpillBytes caps the tenant's spill-file bytes on disk: spills over
	// the cap are rejected (their eviction drops the session) and a tenant
	// at the cap gets 507 spill_quota on new registrations.
	MaxSpillBytes      int64   `json:"max_spill_bytes,omitempty"`
	DeletionRowsPerSec float64 `json:"deletion_rows_per_sec,omitempty"`
	Burst              float64 `json:"burst,omitempty"`
}

// Tenant is one resolved API-key principal. The zero value is the anonymous
// tenant: empty name, no quota, no rate limit.
type Tenant struct {
	Name               string
	MaxSessions        int
	MaxBytes           int64
	MaxSpillBytes      int64
	DeletionRowsPerSec float64
	Burst              float64

	keyHash [sha256.Size]byte
	bucket  *tokenBucket // nil = unlimited
}

// anonTenant is the principal of unauthenticated callers (AuthOff/AuthOptional).
var anonTenant = &Tenant{}

// Authenticated reports whether the tenant was resolved from an API key.
func (t *Tenant) Authenticated() bool { return t.Name != "" }

// storeID maps a wire session ID into the tenant's storage namespace.
func (t *Tenant) storeID(wireID string) string {
	if t.Name == "" {
		return wireID
	}
	return t.Name + "/" + wireID
}

// takeRows charges n deletion rows against the tenant's token bucket. When
// the bucket lacks the tokens it reports how long until the batch would fit
// (and charges nothing).
func (t *Tenant) takeRows(n int) (time.Duration, bool) {
	if t.bucket == nil {
		return 0, true
	}
	return t.bucket.take(float64(n))
}

// streamWait reports how long until one deletion row would be admitted,
// without charging anything — the stream-open probe.
func (t *Tenant) streamWait() time.Duration {
	if t.bucket == nil {
		return 0
	}
	return t.bucket.peek(1)
}

// tokenBucket is a standard refill-on-demand token bucket.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	if burst <= 0 {
		burst = rate
	}
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

// refillLocked advances the bucket to now. Callers hold mu.
func (b *tokenBucket) refillLocked(now time.Time) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// take removes n tokens if available; otherwise it charges nothing and
// reports how long until n tokens will have accumulated. A request larger
// than the bucket can never pass: the caller distinguishes that case via
// Capacity.
func (b *tokenBucket) take(n float64) (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(time.Now())
	if n <= b.tokens {
		b.tokens -= n
		return 0, true
	}
	return time.Duration((n - b.tokens) / b.rate * float64(time.Second)), false
}

// peek reports how long until n tokens are available, charging nothing.
func (b *tokenBucket) peek(n float64) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(time.Now())
	if n <= b.tokens {
		return 0
	}
	return time.Duration((n - b.tokens) / b.rate * float64(time.Second))
}

// Capacity returns the bucket size of the tenant's deletion-row limiter (0 =
// unlimited) — the largest batch that can ever be admitted at once.
func (t *Tenant) Capacity() float64 {
	if t.bucket == nil {
		return 0
	}
	return t.bucket.burst
}

// Keyring resolves API keys to tenants. It is safe for concurrent use and
// hot-reloadable: Reload re-reads the file it was loaded from, and tenants
// whose rate configuration is unchanged keep their live token buckets.
type Keyring struct {
	path string

	mu      sync.RWMutex
	tenants []*Tenant
}

// LoadKeyring reads and validates a tenant key file.
func LoadKeyring(path string) (*Keyring, error) {
	k := &Keyring{path: path}
	if err := k.Reload(); err != nil {
		return nil, err
	}
	return k, nil
}

// Reload re-reads the key file. On any error the previous keyring state is
// kept, so a bad edit plus SIGHUP cannot lock every tenant out.
func (k *Keyring) Reload() error {
	raw, err := os.ReadFile(k.path)
	if err != nil {
		return fmt.Errorf("service: reading key file: %w", err)
	}
	var file struct {
		Tenants []TenantConfig `json:"tenants"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return fmt.Errorf("service: parsing key file %s: %w", k.path, err)
	}
	names := map[string]bool{}
	hashes := map[[sha256.Size]byte]bool{}
	tenants := make([]*Tenant, 0, len(file.Tenants))
	var plaintext []string
	for i, tc := range file.Tenants {
		if tc.Name == "" {
			return fmt.Errorf("service: key file tenant %d: name is required", i)
		}
		if strings.ContainsAny(tc.Name, "/ \t\n") {
			return fmt.Errorf("service: tenant name %q may not contain '/' or whitespace", tc.Name)
		}
		if names[tc.Name] {
			return fmt.Errorf("service: tenant %q appears twice in the key file", tc.Name)
		}
		names[tc.Name] = true
		var h [sha256.Size]byte
		switch {
		case tc.Key != "" && tc.KeySHA256 != "":
			return fmt.Errorf("service: tenant %q sets both key and key_sha256; pick one", tc.Name)
		case tc.KeySHA256 != "":
			raw, err := hex.DecodeString(strings.ToLower(tc.KeySHA256))
			if err != nil || len(raw) != sha256.Size {
				return fmt.Errorf("service: tenant %q: key_sha256 must be 64 hex characters (the SHA-256 of the key)", tc.Name)
			}
			copy(h[:], raw)
		case tc.Key != "":
			h = sha256.Sum256([]byte(tc.Key))
			plaintext = append(plaintext, tc.Name)
		default:
			return fmt.Errorf("service: tenant %q: key or key_sha256 is required", tc.Name)
		}
		if hashes[h] {
			return fmt.Errorf("service: tenant %q reuses another tenant's key", tc.Name)
		}
		hashes[h] = true
		if tc.MaxSessions < 0 || tc.MaxBytes < 0 || tc.MaxSpillBytes < 0 || tc.DeletionRowsPerSec < 0 || tc.Burst < 0 {
			return fmt.Errorf("service: tenant %q has negative limits", tc.Name)
		}
		t := &Tenant{
			Name:               tc.Name,
			MaxSessions:        tc.MaxSessions,
			MaxBytes:           tc.MaxBytes,
			MaxSpillBytes:      tc.MaxSpillBytes,
			DeletionRowsPerSec: tc.DeletionRowsPerSec,
			Burst:              tc.Burst,
			keyHash:            h,
		}
		if t.DeletionRowsPerSec > 0 {
			t.bucket = newTokenBucket(t.DeletionRowsPerSec, t.Burst)
		}
		tenants = append(tenants, t)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	// Keep live bucket state across reloads for tenants whose rate config is
	// unchanged, so a SIGHUP cannot be used to reset a drained bucket.
	for _, old := range k.tenants {
		if old.bucket == nil {
			continue
		}
		for _, t := range tenants {
			if t.Name == old.Name && t.DeletionRowsPerSec == old.DeletionRowsPerSec && t.Burst == old.Burst {
				t.bucket = old.bucket
			}
		}
	}
	k.tenants = tenants
	// Resolution only ever compares digests, so plaintext entries buy
	// nothing but exposure; nudge operators toward the hashed form.
	for _, name := range plaintext {
		log.Printf("service: tenant %q stores a plaintext api key in %s; replace \"key\" with \"key_sha256\" (hex SHA-256 of the key)", name, k.path)
	}
	return nil
}

// Resolve maps a presented API key to its tenant. Comparison is constant
// time per entry over SHA-256 digests, and every entry is scanned even after
// a match.
func (k *Keyring) Resolve(key string) (*Tenant, bool) {
	h := sha256.Sum256([]byte(key))
	k.mu.RLock()
	defer k.mu.RUnlock()
	var found *Tenant
	for _, t := range k.tenants {
		if subtle.ConstantTimeCompare(h[:], t.keyHash[:]) == 1 {
			found = t
		}
	}
	return found, found != nil
}

// Len returns the number of registered tenants.
func (k *Keyring) Len() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.tenants)
}

// Limits adapts the keyring to the store's per-tenant quota hook. Tenants
// removed from the key file keep their sessions but fall back to unlimited
// (they can no longer authenticate to create more anyway).
func (k *Keyring) Limits(tenant string) store.TenantLimits {
	k.mu.RLock()
	defer k.mu.RUnlock()
	for _, t := range k.tenants {
		if t.Name == tenant {
			return store.TenantLimits{
				MaxSessions:   t.MaxSessions,
				MaxBytes:      t.MaxBytes,
				MaxSpillBytes: t.MaxSpillBytes,
			}
		}
	}
	return store.TenantLimits{}
}

// tenantCtxKey keys the resolved tenant in the request context.
type tenantCtxKey struct{}

// tenantFor returns the request's resolved tenant (never nil).
func tenantFor(r *http.Request) *Tenant {
	if t, ok := r.Context().Value(tenantCtxKey{}).(*Tenant); ok {
		return t
	}
	return anonTenant
}

// bearerKey extracts the Authorization: Bearer credential.
func bearerKey(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	if h == "" {
		return "", false
	}
	const prefix = "Bearer "
	if len(h) <= len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return "", false
	}
	return h[len(prefix):], true
}

// writeUnauthorized reports a 401 in the API generation's native error shape:
// a typed envelope on /v2, the flat shape otherwise.
func writeUnauthorized(w http.ResponseWriter, r *http.Request, format string, args ...any) {
	w.Header().Set("WWW-Authenticate", `Bearer realm="priu"`)
	e := apiErrorf(http.StatusUnauthorized, ErrCodeUnauthorized, format, args...)
	if strings.HasPrefix(r.URL.Path, "/v2/") {
		writeAPIError(w, e)
		return
	}
	writeFlat(w, e)
}

// withAuth wraps the route mux with tenant resolution. /healthz bypasses
// auth in every mode: load balancers probe it without credentials.
func (s *Server) withAuth(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ten := anonTenant
		if s.authMode != AuthOff && r.URL.Path != "/healthz" {
			key, present := bearerKey(r)
			switch {
			case present:
				if s.keyring == nil {
					writeUnauthorized(w, r, "api keys are not configured on this server")
					return
				}
				t, ok := s.keyring.Resolve(key)
				if !ok {
					writeUnauthorized(w, r, "unknown api key")
					return
				}
				ten = t
			case s.authMode == AuthRequired:
				writeUnauthorized(w, r, "missing api key: send Authorization: Bearer <key>")
				return
			}
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, ten)))
	})
}
