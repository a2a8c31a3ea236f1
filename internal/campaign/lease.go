package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// lease is a claim this worker holds on one point. The zero of
// released means held; release flips it exactly once.
type lease struct {
	key      string
	path     string
	released bool
}

// acquire claims the lease for a point. It returns the held lease, or
// nil when another worker's live lease blocks the point, or an error
// for real filesystem trouble. An expired lease (mtime older than the
// TTL) is stolen: rename-to-tomb first, so exactly one of any number
// of concurrent stealers wins the rename and gets to recreate the
// lease.
func (w *Worker) acquire(key, point string) (*lease, error) {
	path := filepath.Join(w.dir, leasesDir, key+leaseSuffix)
	body, err := json.Marshal(leaseInfo{
		Owner:    w.owner,
		Point:    point,
		PID:      os.Getpid(),
		Host:     w.host,
		Acquired: time.Now().UTC().Format(time.RFC3339),
	})
	if err != nil {
		return nil, err
	}
	// The lease must appear with its body already in place (a reader
	// must never see an empty claim), so it is created by hardlinking a
	// fully-written tmp file: link fails with fs.ErrExist if the point
	// is already claimed, which is the atomic test-and-set.
	tmp := filepath.Join(w.dir, leasesDir, fmt.Sprintf(".claim-%s-%d", w.owner, w.tombs.Add(1)))
	if err := os.WriteFile(tmp, body, 0o644); err != nil {
		return nil, err
	}
	defer os.Remove(tmp)
	for {
		err := os.Link(tmp, path)
		if err == nil {
			l := &lease{key: key, path: path}
			w.track(l)
			return l, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, err
		}
		fi, serr := os.Stat(path)
		if serr != nil {
			if errors.Is(serr, fs.ErrNotExist) {
				continue // released between link and stat; retry the link
			}
			return nil, serr
		}
		if time.Since(fi.ModTime()) <= w.pol.leaseTTL() {
			return nil, nil
		}
		// Expired: the holder died or hung past its TTL. Steal by
		// renaming the stale file aside; rename succeeds for exactly one
		// stealer (the source vanishes for everyone else), and the
		// winner loops back to claim the now-free name.
		tomb := fmt.Sprintf("%s.stale-%s-%d", path, w.owner, w.tombs.Add(1))
		if rerr := os.Rename(path, tomb); rerr != nil {
			if errors.Is(rerr, fs.ErrNotExist) {
				continue // lost the steal race; re-evaluate from the top
			}
			return nil, rerr
		}
		os.Remove(tomb)
	}
}

// release gives the lease back. It verifies ownership first: if the
// lease was stolen while we ran (our heartbeats stalled past the TTL —
// a paged-out worker, a debugger stop), the thief's lease must not be
// removed from under it. The read-then-remove window is benign: the
// worst case is a third worker recomputing a point whose result the
// store deduplicates.
func (w *Worker) release(l *lease) {
	if l == nil || l.released {
		return
	}
	l.released = true
	w.untrack(l)
	b, err := os.ReadFile(l.path)
	if err != nil {
		return // already stolen and completed, or never written
	}
	var info leaseInfo
	if json.Unmarshal(b, &info) == nil && info.Owner != w.owner {
		return // stolen; the thief owns the file now
	}
	os.Remove(l.path)
}

// track registers a held lease with the heartbeater.
func (w *Worker) track(l *lease) {
	w.mu.Lock()
	w.held[l.key] = l.path
	w.mu.Unlock()
}

func (w *Worker) untrack(l *lease) {
	w.mu.Lock()
	delete(w.held, l.key)
	w.mu.Unlock()
}

// heartbeat refreshes the mtimes of the worker registration and every
// held lease. A failed Chtimes on a lease means it was stolen — that
// is not an error here; the in-flight attempt keeps running (its
// result is byte-identical to the thief's) and release will detect the
// theft.
func (w *Worker) heartbeat() {
	now := time.Now()
	os.Chtimes(w.workerFile, now, now)
	w.mu.Lock()
	paths := make([]string, 0, len(w.held))
	for _, p := range w.held {
		paths = append(paths, p)
	}
	w.mu.Unlock()
	for _, p := range paths {
		os.Chtimes(p, now, now)
	}
}
