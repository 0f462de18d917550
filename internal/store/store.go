// Package store is a crash-safe, content-addressed result store: a disk
// generalization of internal/exp's in-process singleflight memo. Entries are
// keyed by the SHA-256 of (version, canonical key) — the version string
// folds the code/schema revision into the address, so a binary with a
// different result schema simply misses instead of decoding stale bytes.
//
// Robustness is the design center, not a bolt-on:
//
//   - Writes are atomic: payloads land in a temp file in the store's own
//     tmp/ directory (same filesystem) and are renamed into place, so a
//     crash mid-write can leave garbage only in tmp/, never a half-written
//     entry at an addressable path.
//   - Reads are checksummed: every entry carries a header line with the
//     SHA-256 of its payload. A torn write that DOES reach an addressable
//     path (e.g. via an injected fault or a non-atomic filesystem) fails
//     the checksum, is moved to quarantine/ for post-mortem, and surfaces
//     as ErrCorrupt — callers treat that exactly like a miss and recompute.
//   - Transient I/O errors are retried with exponential backoff + jitter
//     (see RetryPolicy); persistent errors surface to the caller, which
//     degrades to recomputation rather than failing the request.
//   - Faults are injectable (see Injector) so all of the above is testable:
//     torn writes, ENOSPC, corrupt bytes, and transient flakes are driven
//     by tests rather than waited for in production.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

var (
	// ErrNotFound reports that no entry exists for the key (a plain miss).
	ErrNotFound = errors.New("store: entry not found")
	// ErrCorrupt reports that an entry existed but failed its checksum or
	// header parse; the offending file has been moved to quarantine/.
	// Callers should treat it as a miss and recompute.
	ErrCorrupt = errors.New("store: corrupt entry quarantined")
	// ErrTransient marks an error as retryable. The store retries any error
	// wrapping it per the RetryPolicy before giving up; fault injectors use
	// it to exercise the retry path deterministically.
	ErrTransient = errors.New("store: transient I/O")
)

// IsTransient reports whether err should be retried.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient) || os.IsTimeout(err)
}

// RetryPolicy bounds the retry loop around each disk operation: up to
// Attempts tries, sleeping Base<<try (capped at Max) scaled by a uniform
// [0.5,1.5) jitter between them. The zero value selects DefaultRetry.
type RetryPolicy struct {
	Attempts int
	Base     time.Duration
	Max      time.Duration
}

// DefaultRetry is the policy used when Options.Retry is zero: 4 attempts,
// 2ms base, 50ms cap — tuned for local-disk flakes, not network storage.
var DefaultRetry = RetryPolicy{Attempts: 4, Base: 2 * time.Millisecond, Max: 50 * time.Millisecond}

func (p RetryPolicy) normalized() RetryPolicy {
	if p.Attempts <= 0 {
		p = DefaultRetry
	}
	if p.Base <= 0 {
		p.Base = DefaultRetry.Base
	}
	if p.Max < p.Base {
		p.Max = p.Base
	}
	return p
}

// Injector intercepts store I/O for fault injection. All methods are called
// with the entry's user-level key (not the hashed address). Implementations
// must be safe for concurrent use; a nil Injector injects nothing.
type Injector interface {
	// BeforeRead may fail a Get before the file is opened.
	BeforeRead(key string) error
	// BeforeWrite may fail a Put before any bytes are written (ENOSPC-style
	// faults belong here).
	BeforeWrite(key string) error
	// MutateWrite may alter the bytes that land on disk — truncate for a
	// torn write, flip bytes for corruption. Return data unchanged (or nil
	// mutation) for no fault. The checksum header is computed BEFORE the
	// mutation, so mutated payloads fail verification on read, exactly like
	// real on-disk corruption.
	MutateWrite(key string, data []byte) []byte
}

// Options configure Open.
type Options struct {
	// Version is mixed into every entry address; change it when the payload
	// schema (or the code producing it) changes meaning, and old entries
	// become unreachable instead of wrongly decoded.
	Version string
	// Injector, when non-nil, intercepts I/O for fault injection.
	Injector Injector
	// Retry bounds the per-operation retry loop (zero = DefaultRetry).
	Retry RetryPolicy
}

// Store is a content-addressed disk store. Safe for concurrent use by
// multiple goroutines; concurrent processes sharing a directory are safe
// too (atomic rename publishes entries, and identical keys carry identical
// payloads, so write races are benign).
type Store struct {
	dir   string
	inj   Injector
	retry RetryPolicy

	// Built once at Open for Path: the hash input's version prefix
	// (Options.Version + "\x00") and the cleaned directory prefix every
	// entry path starts with.
	seed   string
	prefix string

	rngMu sync.Mutex
	rng   *rand.Rand

	hits        atomic.Int64
	misses      atomic.Int64
	puts        atomic.Int64
	quarantined atomic.Int64
	retries     atomic.Int64

	// Lease-protocol counters (see lease.go).
	leasesAcquired atomic.Int64
	leaseWaits     atomic.Int64
	leaseTakeovers atomic.Int64
}

const headerMagic = "ltrf-store/1"

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	for _, sub := range []string{"", "tmp", "quarantine", "lease"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	return newStore(dir, opts), nil
}

// newStore builds the handle Open returns, without touching the disk.
func newStore(dir string, opts Options) *Store {
	// filepath.Join cleans; a name made only of hex digits and ".rec"
	// never interacts with the cleaning, so Join(dir, "x") minus its "x"
	// is the prefix Join(dir, a[:2], a+".rec") would build each time.
	prefix := filepath.Join(dir, "x")
	return &Store{
		dir:    dir,
		inj:    opts.Injector,
		retry:  opts.Retry.normalized(),
		seed:   opts.Version + "\x00",
		prefix: prefix[:len(prefix)-1],
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Hits, Misses, Puts, Quarantined, and Retries report operation counters
// since Open (observability surface for the server's meta endpoint and for
// the recovery tests' "no recompute after restart" assertions).
func (s *Store) Hits() int64        { return s.hits.Load() }
func (s *Store) Misses() int64      { return s.misses.Load() }
func (s *Store) Puts() int64        { return s.puts.Load() }
func (s *Store) Quarantined() int64 { return s.quarantined.Load() }
func (s *Store) Retries() int64     { return s.retries.Load() }

// Has reports whether an entry for key exists on disk — a single stat of
// its content address, with no payload read, no checksum verification, and
// no hit/miss accounting. It is the lease paths' poll: a waiter stats until
// the lease holder publishes, and the holder stats once under the lease
// before computing. A later Get still decides whether the entry is usable
// (it may be corrupt and get quarantined).
func (s *Store) Has(key string) bool {
	_, err := os.Stat(s.Path(key))
	return err == nil
}

// addr hashes (version, key) to the entry's content address, in hex.
func (s *Store) addr(key string) (a [2 * sha256.Size]byte) {
	var buf [256]byte // keys fit it; a longer one spills to the heap
	sum := sha256.Sum256(append(append(buf[:0], s.seed...), key...))
	hex.Encode(a[:], sum[:])
	return a
}

// Path returns the on-disk path an entry for key would occupy. Entries are
// sharded by the first address byte to keep directories small.
func (s *Store) Path(key string) string {
	a := s.addr(key)
	return s.prefix + string(a[:2]) + string(filepath.Separator) + string(a[:]) + ".rec"
}

// withRetry runs op, retrying transient failures per the policy.
func (s *Store) withRetry(op func() error) error {
	p := s.retry
	var err error
	for try := 0; try < p.Attempts; try++ {
		if try > 0 {
			s.retries.Add(1)
			time.Sleep(s.backoff(try))
		}
		if err = op(); err == nil || !IsTransient(err) {
			return err
		}
	}
	return err
}

// backoff computes the sleep before retry `try` (1-based): Base<<(try-1)
// capped at Max, scaled by a uniform [0.5,1.5) jitter so concurrent
// retriers decorrelate.
func (s *Store) backoff(try int) time.Duration {
	d := s.retry.Base << (try - 1)
	if d > s.retry.Max || d <= 0 {
		d = s.retry.Max
	}
	s.rngMu.Lock()
	j := 0.5 + s.rng.Float64()
	s.rngMu.Unlock()
	return time.Duration(float64(d) * j)
}

// Put stores payload under key, overwriting any existing entry. The write
// is atomic (temp file + rename within the store directory); transient
// failures are retried with backoff.
func (s *Store) Put(key string, payload []byte) error {
	err := s.withRetry(func() error { return s.putOnce(key, payload) })
	if err == nil {
		s.puts.Add(1)
	}
	return err
}

func (s *Store) putOnce(key string, payload []byte) error {
	if s.inj != nil {
		if err := s.inj.BeforeWrite(key); err != nil {
			return fmt.Errorf("store: put %s: %w", key, err)
		}
	}
	sum := sha256.Sum256(payload)
	data := append([]byte(headerMagic+" "+hex.EncodeToString(sum[:])+"\n"), payload...)
	if s.inj != nil {
		if mutated := s.inj.MutateWrite(key, data); mutated != nil {
			data = mutated
		}
	}
	dst := s.Path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), "put-*")
	if err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	return nil
}

// Get returns the payload stored under key. A missing entry returns
// ErrNotFound; an entry that fails its checksum or header parse is moved to
// quarantine/ and returns ErrCorrupt (both are recompute signals, the
// latter with forensics preserved). Transient failures are retried.
func (s *Store) Get(key string) ([]byte, error) {
	var payload []byte
	err := s.withRetry(func() error {
		var err error
		payload, err = s.getOnce(key)
		return err
	})
	switch {
	case err == nil:
		s.hits.Add(1)
	case errors.Is(err, ErrNotFound):
		s.misses.Add(1)
	}
	return payload, err
}

func (s *Store) getOnce(key string) ([]byte, error) {
	if s.inj != nil {
		if err := s.inj.BeforeRead(key); err != nil {
			return nil, fmt.Errorf("store: get %s: %w", key, err)
		}
	}
	path := s.Path(key)
	payload, err := readEntry(path)
	switch {
	case err == errUnverified:
		s.quarantine(path)
		return nil, fmt.Errorf("store: get %s: %w", key, ErrCorrupt)
	case os.IsNotExist(err):
		return nil, fmt.Errorf("store: get %s: %w", key, ErrNotFound)
	case err != nil:
		return nil, fmt.Errorf("store: get %s: %w", key, err)
	}
	return payload, nil
}

// errUnverified is readEntry's verdict on an entry whose whole content
// fails verify.
var errUnverified = errors.New("store: entry fails verification")

// firstRead sizes readEntry's first buffer: a stored result record and its
// header line (about 630 bytes) fit it, so the read allocates once.
const firstRead = 1024

// readEntry reads and verifies the entry at path with plain open, read and
// close calls: no *os.File (so no poller registration or finalizer) and no
// fstat for the size. A read of a regular file comes back short only at
// its end, so an entry that fits the first buffer and verifies costs one
// open, one read and one close. A read that fills the buffer grows it and
// reads on; a short read that fails verification also reads on to end of
// file before the verdict, so a filesystem that returns short reads early
// cannot get a good entry quarantined.
func readEntry(path string) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: path, Err: err}
	}
	defer syscall.Close(fd) //nolint:errcheck // read-only descriptor
	buf := make([]byte, 0, firstRead)
	for {
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, &fs.PathError{Op: "read", Path: path, Err: err}
		}
		buf = buf[:len(buf)+n]
		if n == 0 || len(buf) < cap(buf) {
			if payload, ok := verify(buf); ok {
				return payload, nil
			}
			if n == 0 {
				return nil, errUnverified
			}
		}
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, cap(buf))
		}
	}
}

// verify parses the header line and checks the payload checksum. It reads
// the header in place, so a good entry costs no allocation here.
func verify(data []byte) ([]byte, bool) {
	header, payload, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return nil, false
	}
	magic, sumHex, ok := bytes.Cut(header, []byte{' '})
	if !ok || string(magic) != headerMagic || len(sumHex) != hex.EncodedLen(sha256.Size) {
		return nil, false
	}
	var want [sha256.Size]byte
	if _, err := hex.Decode(want[:], sumHex); err != nil {
		return nil, false
	}
	if sha256.Sum256(payload) != want {
		return nil, false
	}
	return payload, true
}

// quarantine moves a corrupt entry aside for post-mortem instead of
// deleting it; the destination name keeps the address and appends a
// timestamp so repeated corruption of one entry preserves every specimen.
//
// Concurrent readers of one corrupt entry race here: both fail verification
// and both call quarantine, but only one rename can win. The loser's rename
// fails with ENOENT — the entry is already quarantined, which is the
// desired end state, so that is tolerated silently (no spurious removal,
// no double-counted specimen) rather than surfaced as a store error.
func (s *Store) quarantine(path string) {
	dst := filepath.Join(s.dir, "quarantine",
		fmt.Sprintf("%s.%d", filepath.Base(path), time.Now().UnixNano()))
	err := os.Rename(path, dst)
	if err == nil {
		s.quarantined.Add(1)
		return
	}
	if errors.Is(err, fs.ErrNotExist) {
		return // a concurrent reader quarantined it first; nothing left to do
	}
	// Rename failed with the source still in place (e.g. quarantine/ is
	// unwritable): removing the corrupt file keeps the address recomputable,
	// at the cost of the specimen. ENOENT here is the same already-handled
	// race and stays silent.
	if rmErr := os.Remove(path); rmErr == nil {
		s.quarantined.Add(1)
	}
}
