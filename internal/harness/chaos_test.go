package harness

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"testing"
	"time"

	"diam2/internal/campaign"
	"diam2/internal/store"
)

// This file is the chaos harness for the multi-process campaign
// protocol: it spawns real worker subprocesses (re-executions of this
// test binary running TestChaosWorkerMain), SIGKILLs whole generations
// of them mid-sweep, and asserts that the merged store converges to
// byte-identical payloads with a clean single-process run. SIGKILL is
// the honest failure mode — no deferred cleanup runs, leases go stale,
// segment tails are torn — so this exercises lease expiry and steal,
// shared-store tailing, and torn-tail tolerance all at once.

const (
	chaosStoreEnv  = "DIAM2_CHAOS_STORE"
	chaosWorkerEnv = "DIAM2_CHAOS_WORKER"
	chaosPointN    = 24
)

// chaosPoints is the synthetic sweep both the baseline and the chaos
// workers run: deterministic in the derived seed, slow enough (a few
// ms each) that SIGKILLs land mid-sweep and mid-append.
func chaosPoints() []Point[float64] {
	pts := make([]Point[float64], chaosPointN)
	for i := range pts {
		pts[i] = Point[float64]{
			Key: fmt.Sprintf("chaos|%02d", i),
			Run: func(ctx context.Context, seed int64) (float64, error) {
				time.Sleep(time.Duration(3+seed&7) * time.Millisecond)
				return float64(seed&0xfffff) * 0.25, nil
			},
		}
	}
	return pts
}

// TestChaosWorkerMain is not a test of its own: it is the body of a
// chaos worker subprocess, re-executed from TestChaosWorkersConverge
// with the store directory and worker ID in the environment. It exits
// 0 only when its whole sweep finished (computed or cached).
func TestChaosWorkerMain(t *testing.T) {
	dir := os.Getenv(chaosStoreEnv)
	if dir == "" {
		t.Skip("chaos worker harness; driven by TestChaosWorkersConverge")
	}
	st, err := store.Open(dir, store.Options{Mode: store.Shared})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos worker:", err)
		os.Exit(1)
	}
	w, err := campaign.NewWorker(campaign.DirFor(dir), os.Getenv(chaosWorkerEnv), campaign.Policy{
		LeaseTTL:    500 * time.Millisecond,
		BaseBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos worker:", err)
		os.Exit(1)
	}
	sc := schedScale(1, Sched{Workers: 2, Store: st, Campaign: w})
	_, runErr := Collect(sc, chaosPoints())
	w.Close()
	if cerr := st.Close(); runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "chaos worker:", runErr)
		os.Exit(1)
	}
	os.Exit(0)
}

// TestChaosWorkersConverge is the acceptance test: generations of 3
// worker processes are SIGKILLed at random points mid-campaign; a final
// generation must converge, and the merged store must hold exactly the
// payload bytes of a single-process cold run.
func TestChaosWorkersConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker subprocesses")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: one process, exclusive store, no campaign.
	baseDir := t.TempDir()
	baseStore, err := store.Open(baseDir, store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(schedScale(1, Sched{Workers: 2, Store: baseStore}), chaosPoints()); err != nil {
		t.Fatal(err)
	}
	baseline := map[string]store.Record{}
	for _, rec := range baseStore.Records() {
		baseline[rec.Key] = rec
	}
	if err := baseStore.Close(); err != nil {
		t.Fatal(err)
	}
	if len(baseline) != chaosPointN {
		t.Fatalf("baseline has %d records, want %d", len(baseline), chaosPointN)
	}

	chaosDir := t.TempDir()
	worker := 0
	spawn := func() *exec.Cmd {
		worker++
		cmd := exec.Command(exe, "-test.run=^TestChaosWorkerMain$")
		cmd.Env = append(os.Environ(),
			chaosStoreEnv+"="+chaosDir,
			fmt.Sprintf("%s=chaos-%03d", chaosWorkerEnv, worker))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}

	// Chaos phase: run generations of 3 workers and SIGKILL each
	// generation at a random moment mid-sweep. Every generation leaves
	// partial state — live leases gone stale, torn segment tails,
	// half-written failure logs — that the next generation must absorb.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	kills := 0
	for gen := 0; gen < 4; gen++ {
		cmds := []*exec.Cmd{spawn(), spawn(), spawn()}
		time.Sleep(time.Duration(60+rng.Intn(150)) * time.Millisecond)
		for _, cmd := range cmds {
			if cmd.ProcessState == nil { // still running
				kills++
			}
			cmd.Process.Kill() // SIGKILL: no cleanup, no lease release
			cmd.Wait()
		}
	}
	if kills == 0 {
		t.Fatal("chaos phase never caught a worker alive; the sweep is too fast to test anything")
	}
	t.Logf("chaos phase: %d workers SIGKILLed mid-sweep", kills)

	// Convergence phase: a fresh generation must finish the campaign —
	// stealing the dead generations' stale leases along the way —
	// within the deadline. Workers that die for transient reasons are
	// respawned.
	deadline := time.Now().Add(2 * time.Minute)
	cmds := []*exec.Cmd{spawn(), spawn(), spawn()}
	converged := false
	for !converged {
		if time.Now().After(deadline) {
			t.Fatal("campaign never converged after the chaos phase")
		}
		for i, cmd := range cmds {
			err := cmd.Wait()
			if err == nil {
				converged = true
				break
			}
			t.Logf("worker exited with %v (%s); respawning", err, bytes.TrimSpace(cmd.Stdout.(*bytes.Buffer).Bytes()))
			cmds[i] = spawn()
		}
	}
	for _, cmd := range cmds {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}

	// The merged store must render byte-identically to the baseline:
	// same canonical keys, same derived seeds, same payload bytes.
	merged, err := store.Open(chaosDir, store.Options{Logf: t.Logf, Mode: store.ReadOnly})
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	got := merged.Records()
	if len(got) != len(baseline) {
		t.Errorf("merged store has %d live records, baseline %d", len(got), len(baseline))
	}
	for _, rec := range got {
		want, ok := baseline[rec.Key]
		if !ok {
			t.Errorf("merged store has key %s (%s) the baseline lacks", rec.Key, rec.Point)
			continue
		}
		if rec.Seed != want.Seed {
			t.Errorf("point %s: seed %d != baseline %d", rec.Point, rec.Seed, want.Seed)
		}
		if !bytes.Equal(rec.Payload, want.Payload) {
			t.Errorf("point %s: payload %s != baseline %s", rec.Point, rec.Payload, want.Payload)
		}
	}
}
