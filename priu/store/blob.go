package store

import (
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// The blob tier: a third storage layer under Tiered speaking an S3/GCS-style
// object API. When a Tiered store is given a BlobStore (WithBlobStore), the
// local spill directory becomes a read-through/write-behind cache of the
// shared tier: every published spill file is pushed to the blob store, cold
// misses fall through to it, and the disk-budget evictor may demote a
// blob-backed local file to a pure cache drop instead of a session loss.
// Several priuserve replicas pointing at one blob store share every session
// — the durability substrate of the fleet (priu/cluster).

// ErrBlobNotFound is returned by BlobStore.Get for a key that does not exist.
var ErrBlobNotFound = errors.New("store: blob not found")

// BlobInfo describes one stored object.
type BlobInfo struct {
	Key     string
	Size    int64
	ModTime time.Time
}

// BlobStore is the object API of the shared spill tier. Keys are opaque
// strings (session storage IDs, which may contain "/"); values are spill-file
// envelopes. Put must be atomic: a reader never observes a torn object.
// Implementations must be safe for concurrent use.
type BlobStore interface {
	// Put stores the object under key, replacing any previous version.
	Put(key string, r io.Reader) error
	// Get opens the object for reading, returning its size. A missing key
	// returns ErrBlobNotFound.
	Get(key string) (io.ReadCloser, int64, error)
	// Delete removes the object. Deleting a missing key is not an error.
	Delete(key string) error
	// List returns the stored objects whose key starts with prefix
	// (prefix "" lists everything), in unspecified order.
	List(prefix string) ([]BlobInfo, error)
}

// FSBlob is a filesystem-backed BlobStore: one file per object in a flat
// directory, written as temp + fsync + rename so concurrent readers never see
// a torn object. Keys are query-escaped into file names, so namespaced
// session IDs ("tenant/sess-1") round-trip losslessly. It is the
// implementation behind cmd/priublob and the single-machine fleet tests, and
// Tiered keeps its spill directory in one.
type FSBlob struct {
	dir string
}

// NewFSBlob opens (creating if needed) a filesystem-backed blob store rooted
// at dir, removing temp files at least tmpFloor old: those are writes a
// crashed process abandoned, while younger ones may be another process's Put
// in flight on a shared directory.
func NewFSBlob(dir string) (*FSBlob, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating blob dir: %w", err)
	}
	b := &FSBlob{dir: dir}
	b.sweepTemps(tmpFloor)
	return b, nil
}

// blobTmp prefixes in-flight temp files (skipped by List).
const blobTmp = "tmp-"

func (b *FSBlob) path(key string) string {
	return filepath.Join(b.dir, url.QueryEscape(key))
}

// fsTemp is a staged write: a fsynced temp file not yet visible under a key.
type fsTemp struct {
	name  string
	size  int64
	fsync time.Duration
}

// stage writes an object to a temp file and fsyncs it — the first half of
// every write to the directory. The caller either commits the temp under a
// key or aborts it.
func (b *FSBlob) stage(write func(io.Writer) error) (fsTemp, error) {
	f, err := os.CreateTemp(b.dir, blobTmp+"*")
	if err != nil {
		return fsTemp{}, fmt.Errorf("store: creating temp file: %w", err)
	}
	tmp := fsTemp{name: f.Name()}
	err = write(f)
	if err == nil {
		tmp.size, err = f.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		start := time.Now()
		err = f.Sync()
		tmp.fsync = time.Since(start)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		b.abort(tmp)
		return fsTemp{}, err
	}
	return tmp, nil
}

// commit renames a staged temp into place under key, atomically replacing
// any previous version.
func (b *FSBlob) commit(tmp fsTemp, key string) error {
	if err := os.Rename(tmp.name, b.path(key)); err != nil {
		b.abort(tmp)
		return fmt.Errorf("store: publishing %s: %w", key, err)
	}
	return nil
}

// abort removes a staged temp.
func (b *FSBlob) abort(tmp fsTemp) { _ = os.Remove(tmp.name) }

// syncDir fsyncs the directory, making the renames and unlinks before it
// durable.
func (b *FSBlob) syncDir() error {
	d, err := os.Open(b.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// sweepTemps removes temp files at least minAge old and reports how many
// went.
func (b *FSBlob) sweepTemps(minAge time.Duration) int {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, de := range entries {
		if de.IsDir() || !strings.HasPrefix(de.Name(), blobTmp) {
			continue
		}
		if info, err := de.Info(); err == nil && time.Since(info.ModTime()) >= minAge &&
			os.Remove(filepath.Join(b.dir, de.Name())) == nil {
			n++
		}
	}
	return n
}

// Put implements BlobStore: stage + commit, so a crash mid-put leaves an
// ignorable temp file, never a torn object.
func (b *FSBlob) Put(key string, r io.Reader) error {
	tmp, err := b.stage(func(w io.Writer) error {
		_, err := io.Copy(w, r)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: writing blob %s: %w", key, err)
	}
	return b.commit(tmp, key)
}

// Get implements BlobStore.
func (b *FSBlob) Get(key string) (io.ReadCloser, int64, error) {
	f, err := os.Open(b.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, ErrBlobNotFound
		}
		return nil, 0, fmt.Errorf("store: opening blob %s: %w", key, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, info.Size(), nil
}

// Delete implements BlobStore.
func (b *FSBlob) Delete(key string) error {
	if err := os.Remove(b.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: deleting blob %s: %w", key, err)
	}
	return nil
}

// List implements BlobStore.
func (b *FSBlob) List(prefix string) ([]BlobInfo, error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing blob dir: %w", err)
	}
	var out []BlobInfo
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || strings.HasPrefix(name, blobTmp) {
			continue
		}
		key, err := url.QueryUnescape(name)
		if err != nil || !strings.HasPrefix(key, prefix) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		out = append(out, BlobInfo{Key: key, Size: info.Size(), ModTime: info.ModTime()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}
