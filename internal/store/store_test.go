package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{Version: "v1"})
	want := []byte(`{"answer":42}`)
	if err := s.Put("point-a", want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get("point-a")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("payload mismatch: got %q want %q", got, want)
	}
	if s.Hits() != 1 || s.Puts() != 1 {
		t.Fatalf("counters: hits=%d puts=%d", s.Hits(), s.Puts())
	}
}

func TestGetMiss(t *testing.T) {
	s := open(t, t.TempDir(), Options{Version: "v1"})
	if _, err := s.Get("never-stored"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get miss: got %v, want ErrNotFound", err)
	}
	if s.Misses() != 1 {
		t.Fatalf("misses=%d, want 1", s.Misses())
	}
}

func TestRestartServesPriorEntries(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, Options{Version: "v1"})
	if err := s1.Put("k", []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// A "crash" leaves garbage in tmp/ but never a half-written entry at an
	// addressable path; reopening must serve the committed entry and ignore
	// the debris.
	if err := os.WriteFile(filepath.Join(dir, "tmp", "put-crash"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{Version: "v1"})
	got, err := s2.Get("k")
	if err != nil || string(got) != "payload" {
		t.Fatalf("Get after restart: %q, %v", got, err)
	}
}

func TestVersionChangeMisses(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir, Options{Version: "v1"})
	if err := s1.Put("k", []byte("old-schema")); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{Version: "v2"})
	if _, err := s2.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get under new version: got %v, want ErrNotFound", err)
	}
}

func TestOnDiskCorruptionQuarantines(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Version: "v1"})
	if err := s.Put("k", []byte("precious")); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in place — bit rot the checksum must catch.
	path := s.Path("k")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Get("k"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get corrupt: got %v, want ErrCorrupt", err)
	}
	if s.Quarantined() != 1 {
		t.Fatalf("quarantined=%d, want 1", s.Quarantined())
	}
	// The specimen is preserved for post-mortem...
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("quarantine dir: %v entries, err %v", len(ents), err)
	}
	// ...the address is recomputable (plain miss now)...
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after quarantine: got %v, want ErrNotFound", err)
	}
	// ...and a fresh Put fully heals the entry.
	if err := s.Put("k", []byte("recomputed")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k")
	if err != nil || string(got) != "recomputed" {
		t.Fatalf("Get after heal: %q, %v", got, err)
	}
}

func TestTornWriteQuarantinedOnRead(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{Version: "v1", Injector: &Faults{OnMutate: TornWrites(1)}})
	if err := s.Put("k", []byte("will-be-torn")); err != nil {
		t.Fatalf("Put: %v", err) // the tear is silent, like a real torn write
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get torn: got %v, want ErrCorrupt", err)
	}
	// Second write is untorn; the entry recovers.
	if err := s.Put("k", []byte("intact")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("k"); err != nil || string(got) != "intact" {
		t.Fatalf("Get after rewrite: %q, %v", got, err)
	}
}

func TestCorruptWriteQuarantinedOnRead(t *testing.T) {
	s := open(t, t.TempDir(), Options{Version: "v1", Injector: &Faults{OnMutate: CorruptWrites(1)}})
	if err := s.Put("k", []byte("bits")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get corrupted: got %v, want ErrCorrupt", err)
	}
}

func TestENOSPCSurfacesWithoutRetryStorm(t *testing.T) {
	s := open(t, t.TempDir(), Options{
		Version:  "v1",
		Injector: &Faults{OnWrite: ENOSPCAlways()},
		Retry:    RetryPolicy{Attempts: 5, Base: time.Millisecond, Max: time.Millisecond},
	})
	err := s.Put("k", []byte("x"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put on full disk: got %v, want ENOSPC", err)
	}
	// ENOSPC is not transient: no retries were burned on it.
	if s.Retries() != 0 {
		t.Fatalf("retries=%d, want 0 for non-transient error", s.Retries())
	}
}

func TestTransientWriteRetried(t *testing.T) {
	s := open(t, t.TempDir(), Options{
		Version:  "v1",
		Injector: &Faults{OnWrite: Countdown(2, TransientErr(errors.New("flaky disk")))},
		Retry:    RetryPolicy{Attempts: 4, Base: time.Microsecond, Max: time.Microsecond},
	})
	if err := s.Put("k", []byte("x")); err != nil {
		t.Fatalf("Put through transient flake: %v", err)
	}
	if s.Retries() != 2 {
		t.Fatalf("retries=%d, want 2", s.Retries())
	}
	if got, err := s.Get("k"); err != nil || string(got) != "x" {
		t.Fatalf("Get: %q, %v", got, err)
	}
}

func TestTransientBudgetExhausted(t *testing.T) {
	inner := errors.New("flaky disk")
	s := open(t, t.TempDir(), Options{
		Version:  "v1",
		Injector: &Faults{OnWrite: Countdown(100, TransientErr(inner))},
		Retry:    RetryPolicy{Attempts: 3, Base: time.Microsecond, Max: time.Microsecond},
	})
	if err := s.Put("k", []byte("x")); !errors.Is(err, inner) {
		t.Fatalf("Put: got %v, want wrapped %v after budget exhausted", err, inner)
	}
	if s.Retries() != 2 {
		t.Fatalf("retries=%d, want 2 (attempts-1)", s.Retries())
	}
}

func TestHeaderGarbageQuarantines(t *testing.T) {
	s := open(t, t.TempDir(), Options{Version: "v1"})
	if err := s.Put("k", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	for name, junk := range map[string][]byte{
		"no-newline":  []byte("ltrf-store/1 deadbeef"),
		"wrong-magic": []byte("other-store/9 00\npayload"),
		"bad-hex":     []byte("ltrf-store/1 zz\npayload"),
		"empty":       {},
	} {
		if err := os.WriteFile(s.Path("k"), junk, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get("k"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", name, err)
		}
		if err := s.Put("k", []byte("ok")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestKeyRecorder(t *testing.T) {
	rec := &KeyRecorder{}
	s := open(t, t.TempDir(), Options{Version: "v1", Injector: &Faults{OnRead: rec.Hook()}})
	s.Get("a") //nolint:errcheck
	s.Get("b") //nolint:errcheck
	keys := rec.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("recorded keys: %v", keys)
	}
}

// TestGetEdgeCases drives Get's read over entry shapes at and around its
// first buffer: sizes that fill it exactly or spill past it must round-trip,
// entries that fail verification are quarantined as ErrCorrupt, and a
// directory at the entry's path is an error, never a hit.
func TestGetEdgeCases(t *testing.T) {
	header := len(headerMagic) + 1 + 64 + 1 // magic, space, hex SHA-256, newline
	payload := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*7 + 3)
		}
		return p
	}
	for _, tc := range []struct {
		name string
		// setup prepares the entry for key "k" (nil: nothing is stored).
		setup      func(t *testing.T, s *Store)
		want       []byte // the payload Get returns, when it succeeds
		wantErr    error  // the sentinel Get's error wraps (nil: success)
		quarantine int64
		retries    int64
		faults     *Faults
	}{
		{name: "small", want: payload(551)},
		{name: "fills the first buffer", want: payload(firstRead - header)},
		{name: "one byte short of the first buffer", want: payload(firstRead - header - 1)},
		{name: "one byte past the first buffer", want: payload(firstRead - header + 1)},
		{name: "64 KiB", want: payload(64 << 10)},
		{name: "missing", setup: func(*testing.T, *Store) {}, wantErr: ErrNotFound},
		{
			name: "empty file", wantErr: ErrCorrupt, quarantine: 1,
			setup: func(t *testing.T, s *Store) { writeEntry(t, s, nil) },
		},
		{
			name: "header only", wantErr: ErrCorrupt, quarantine: 1,
			setup: func(t *testing.T, s *Store) {
				if err := s.Put("k", payload(551)); err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(s.Path("k"), int64(header)); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "directory at the entry's path",
			setup: func(t *testing.T, s *Store) {
				if err := os.MkdirAll(s.Path("k"), 0o755); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "transient read failure", want: payload(551), retries: 2,
			faults: &Faults{OnRead: Countdown(2, TransientErr(errors.New("flaky disk")))},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, t.TempDir(), Options{
				Version:  "v1",
				Injector: tc.faults,
				Retry:    RetryPolicy{Attempts: 4, Base: time.Microsecond, Max: time.Microsecond},
			})
			if tc.setup != nil {
				tc.setup(t, s)
			} else if err := s.Put("k", tc.want); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("k")
			switch {
			case tc.want != nil:
				if err != nil {
					t.Fatalf("Get: %v", err)
				}
				if !bytes.Equal(got, tc.want) {
					t.Fatalf("payload of %d bytes came back as %d bytes, or with different content", len(tc.want), len(got))
				}
				if s.Hits() != 1 {
					t.Errorf("hits=%d, want 1", s.Hits())
				}
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Get: got %v, want %v", err, tc.wantErr)
				}
			default:
				if err == nil || errors.Is(err, ErrNotFound) || errors.Is(err, ErrCorrupt) {
					t.Fatalf("Get: got %v, want a plain read error", err)
				}
			}
			if tc.want == nil && (got != nil || s.Hits() != 0) {
				t.Errorf("a failed Get returned %d bytes and counted %d hits", len(got), s.Hits())
			}
			if s.Quarantined() != tc.quarantine {
				t.Errorf("quarantined=%d, want %d", s.Quarantined(), tc.quarantine)
			}
			if tc.quarantine > 0 {
				if _, err := os.Stat(s.Path("k")); !os.IsNotExist(err) {
					t.Errorf("quarantined entry still at its path (stat: %v)", err)
				}
			}
			if s.Retries() != tc.retries {
				t.Errorf("retries=%d, want %d", s.Retries(), tc.retries)
			}
		})
	}
}

// writeEntry writes raw bytes at the entry path of key "k".
func writeEntry(t *testing.T, s *Store, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(s.Path("k")), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path("k"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStoreGet reads one stored entry the size of an average result
// record (551 bytes of payload): the store-warm read path's cost per point.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir(), Options{Version: "v1"})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put("k", make([]byte, 551)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.Get("k"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPathMatchesRecorded pins Path byte for byte to what the
// filepath.Join implementation it replaced returned for the same (dir,
// version, key): a path that drifts misses every entry already stored.
func TestPathMatchesRecorded(t *testing.T) {
	if filepath.Separator != '/' {
		t.Skip("paths were recorded with a '/' separator")
	}
	const (
		version = "ltrf-exp/v2/3b0ba5c1"
		key     = "design=LTRF;tech=1;latx=1;wl=vectoradd;unroll=4;budget=12000;rpi=0;aw=0"
		entry   = "4c/4c778abd0c9b5fc9b3f0dd59588f5ab7405efbb0d2007132251e62344135d1bc.rec"
	)
	for _, c := range []struct{ dir, path string }{
		{"", entry},
		{".", entry},
		{"/", "/" + entry},
		{"store", "store/" + entry},
		{"./store/", "store/" + entry},
		{"/var/lib/ltrf/store", "/var/lib/ltrf/store/" + entry},
		{"a//b/../c/.", "a/c/" + entry},
		{"../up", "../up/" + entry},
		{"/x/y/..", "/x/" + entry},
	} {
		if got := newStore(c.dir, Options{Version: version}).Path(key); got != c.path {
			t.Errorf("Path in dir %q = %q, want %q", c.dir, got, c.path)
		}
	}
}

// TestGetReadsRecordedEntry reads an entry file exactly as an earlier
// build's Put wrote it: the in-place header check must accept it and
// return the payload, embedded newline included.
func TestGetReadsRecordedEntry(t *testing.T) {
	s := open(t, t.TempDir(), Options{Version: "v1"})
	writeEntry(t, s, []byte("ltrf-store/1 9679b3b2d358991974d28256a929b8440091431c61b1935cf72ddca95da9cfc6\npayload\nwith a newline"))
	got, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if want := "payload\nwith a newline"; string(got) != want {
		t.Errorf("Get = %q, want %q", got, want)
	}
}

// TestPathLongKey checks a key too long for addr's stack buffer against
// the address recomputed from scratch.
func TestPathLongKey(t *testing.T) {
	s := newStore("d", Options{Version: "v1"})
	key := string(bytes.Repeat([]byte("k"), 1000))
	sum := sha256.Sum256([]byte("v1\x00" + key))
	a := hex.EncodeToString(sum[:])
	if got, want := s.Path(key), filepath.Join("d", a[:2], a+".rec"); got != want {
		t.Errorf("Path = %q, want %q", got, want)
	}
}

// TestGetHitAllocations caps a Get hit's heap allocations at three: the
// entry path, its NUL-terminated copy for the open syscall, and the read
// buffer the payload is returned in. Nothing Open already knows is rebuilt
// per call, and the header is verified in place.
func TestGetHitAllocations(t *testing.T) {
	s := open(t, t.TempDir(), Options{Version: "v1"})
	if err := s.Put("k", make([]byte, 551)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Get("k"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("Get hit allocates %.0f times, want at most 3", allocs)
	}
}
