package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// Per-point leases: the network-level generalization of exp.Engine's
// in-process singleflight. N replicas sharing a store directory use a lease
// file per entry address to agree on which replica computes a cold point;
// the others wait for the winner to publish and then read the entry — each
// cold point is computed exactly once across the fleet instead of once per
// replica.
//
// The protocol is deliberately primitive — no daemon, no network, just the
// shared filesystem the store already requires:
//
//   - Acquire: exclusive creation of lease/<addr> (a hard link of a fully
//     written temporary file) wins the point. The file carries the owner's
//     name and a deadline; creation, not content, arbitrates.
//   - Hold: the winner computes and publishes the entry (Put), then
//     releases. The deadline is the winner's promise — publish before it or
//     lose the claim.
//   - Wait: losers poll Has with the store's jittered retry backoff until
//     the entry lands, re-attempting Acquire each round so a released or
//     expired lease is picked up promptly.
//   - Takeover: a lease whose deadline has passed is presumed crashed.
//     Any waiter removes the stale file and re-runs the exclusive create;
//     the create arbitrates between concurrent takers exactly like a fresh
//     acquisition.
//
// Two benign races are accepted rather than locked away. (1) Two takers can
// both remove one stale lease; one wins the re-create, the other keeps
// waiting. (2) A holder that outlives its deadline may have its lease taken
// over mid-compute, letting a second replica duplicate the point — entries
// for one key are byte-identical, so the duplicate Put is wasted work, not
// corruption. Pick a TTL that covers the slowest point to make (2) rare.

// ErrLeaseHeld reports that another owner holds a live (non-expired) lease
// on the key. Callers wait and poll rather than compute.
var ErrLeaseHeld = errors.New("store: lease held by another owner")

// DefaultLeaseTTL is the lease deadline used when AcquireLease is given a
// non-positive TTL: generous against the slowest full-budget point so live
// holders are essentially never taken over, short enough that a crashed
// replica's points unblock within a couple of minutes.
const DefaultLeaseTTL = 2 * time.Minute

// Lease is an exclusive claim on computing one entry. Release it after
// publishing (or after failing — waiters then acquire and compute).
type Lease struct {
	key      string
	path     string
	Owner    string
	Deadline time.Time
}

// leaseRecord is the lease file's JSON payload. It is forensic (who holds
// this, until when) plus the takeover decision input; exclusive creation is
// what arbitrates ownership.
type leaseRecord struct {
	Owner    string    `json:"owner"`
	Deadline time.Time `json:"deadline"`
}

// LeasePath returns the on-disk lease file path for key (exported for
// crash-simulation tests that plant stale leases by hand).
func (s *Store) LeasePath(key string) string {
	a := s.addr(key)
	return filepath.Join(s.dir, "lease", string(a[:])+".lease")
}

// LeasesAcquired, LeaseWaits, and LeaseTakeovers report the lease protocol's
// counters since Open: exclusive claims won, AcquireLease calls refused with
// ErrLeaseHeld (waiter poll rounds), and stale leases removed past their
// deadline.
func (s *Store) LeasesAcquired() int64 { return s.leasesAcquired.Load() }
func (s *Store) LeaseWaits() int64     { return s.leaseWaits.Load() }
func (s *Store) LeaseTakeovers() int64 { return s.leaseTakeovers.Load() }

// AcquireLease attempts to claim key for owner until now+ttl (non-positive
// ttl = DefaultLeaseTTL). It returns the lease on success, ErrLeaseHeld
// (wrapped, with holder and deadline) while another owner's live lease
// stands, and other errors only for lease-infrastructure failures (callers
// should degrade to uncoordinated compute). A lease whose deadline has
// passed — or whose file is unreadable — is removed and re-contested.
func (s *Store) AcquireLease(key, owner string, ttl time.Duration) (*Lease, error) {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	path := s.LeasePath(key)
	// The retry bound only guards against pathological acquire/release churn
	// on one key; every normal outcome exits the loop in one or two rounds.
	for attempt := 0; attempt < 64; attempt++ {
		deadline := time.Now().Add(ttl)
		err := s.createLease(path, leaseRecord{Owner: owner, Deadline: deadline})
		if err == nil {
			s.leasesAcquired.Add(1)
			return &Lease{key: key, path: path, Owner: owner, Deadline: deadline}, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("store: lease %s: %w", key, err)
		}
		rec, rerr := readLease(path)
		if rerr != nil {
			if errors.Is(rerr, fs.ErrNotExist) {
				continue // released between our create and read; re-contest
			}
			// Unreadable or torn lease file: treat as stale below (zero
			// deadline), so a crash mid-lease-write cannot wedge the key.
		}
		if time.Now().After(rec.Deadline) {
			// Stale: remove and re-run the exclusive create. The create — not
			// this remove — arbitrates between concurrent takers; a failed
			// remove (someone else got there first) is equivalent progress.
			if err := os.Remove(path); err == nil {
				s.leaseTakeovers.Add(1)
			}
			continue
		}
		s.leaseWaits.Add(1)
		return nil, fmt.Errorf("store: lease %s held by %q until %s: %w",
			key, rec.Owner, rec.Deadline.Format(time.RFC3339Nano), ErrLeaseHeld)
	}
	return nil, fmt.Errorf("store: lease %s: acquire/release churn exceeded retry bound: %w", key, ErrLeaseHeld)
}

// createLease publishes a complete lease file at path, failing with
// fs.ErrExist when one is already there. The record is written to tmp/ and
// hard-linked into place: link creation is exclusive like O_EXCL, and a
// reader never sees a claimed lease without its deadline. (Creating the
// file empty and writing it afterwards let a concurrent acquirer read the
// empty file as a torn, stale lease and take a live claim over.)
func (s *Store) createLease(path string, rec leaseRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), "lease-*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Link(f.Name(), path)
}

func readLease(path string) (leaseRecord, error) {
	var rec leaseRecord
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, err
	}
	return rec, nil
}

// Release gives up the claim by removing the lease file. A missing file is
// success, not an error: a post-deadline takeover (or a concurrent releaser
// after a crash-recovery race) has already retired the claim.
func (l *Lease) Release() error {
	if err := os.Remove(l.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: release lease %s: %w", l.key, err)
	}
	return nil
}

// LeasePollDelay returns the jittered sleep a lease waiter should take
// before its try-th poll (1-based): the store's retry backoff reused, so
// concurrent waiters across replicas decorrelate exactly like disk
// retriers do (base 2ms doubling to the 50ms cap under DefaultRetry).
func (s *Store) LeasePollDelay(try int) time.Duration {
	if try < 1 {
		try = 1
	}
	return s.backoff(try)
}
