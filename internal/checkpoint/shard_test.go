package checkpoint

import (
	"bytes"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// shardOpts builds ShardOptions for a scenario.
func shardOpts(cfg system.Config, tc tracegen.Config, shards int, warmup uint64, exact bool) ShardOptions {
	return ShardOptions{
		Shards:    shards,
		Warmup:    warmup,
		TotalRefs: uint64(tc.TotalRefs),
		Exact:     exact,
		Signature: tc.Signature() + "|" + cfg.Organization.String(),
		NewSystem: func() (*system.System, error) {
			sys, err := system.New(cfg)
			if err != nil {
				return nil, err
			}
			if err := tc.SetupSharedMappings(sys.MMU()); err != nil {
				return nil, err
			}
			return sys, nil
		},
		Source: func() (trace.Reader, error) { return tracegen.MustNew(tc), nil },
	}
}

// TestExactShardedMatchesSequential: exact mode must reproduce the
// sequential run's full JSON report byte-for-byte — every shard resumed
// from a checkpoint, re-simulated, and byte-verified against the next
// boundary.
func TestExactShardedMatchesSequential(t *testing.T) {
	for _, org := range []system.Organization{system.VR, system.RRNoInclusion} {
		org := org
		t.Run(org.String(), func(t *testing.T) {
			t.Parallel()
			cfg := testMachine(org, 2)
			tc := testWorkload(t, "pops", 0.01, 2)
			want := runUninterrupted(t, cfg, tc)

			sys, outcome, err := ShardedRun(shardOpts(cfg, tc, 4, 0, true))
			if err != nil {
				t.Fatal(err)
			}
			if outcome.Verified != 4 {
				t.Errorf("verified %d of 4 boundaries", outcome.Verified)
			}
			if got := reportJSON(t, sys, cfg); !bytes.Equal(want, got) {
				t.Errorf("exact sharded report diverges:\nsequential:\n%s\nsharded:\n%s", want, got)
			}
		})
	}
}

// TestExactShardedCatchesCorruption: the differential harness must notice
// when a restored shard does not land on the next boundary's state. A
// workload whose signature (and thus trace) differs between the prior pass
// and nothing else would be caught by the signature check, so corrupt the
// comparison itself: run with a Source whose second regeneration uses a
// different seed.
func TestExactShardedCatchesCorruption(t *testing.T) {
	cfg := testMachine(system.VR, 1)
	tc := testWorkload(t, "pops", 0.005, 1)
	opts := shardOpts(cfg, tc, 2, 0, true)
	// Shards call Source from their own goroutines.
	var calls atomic.Int32
	opts.Source = func() (trace.Reader, error) {
		cc := tc
		if calls.Add(1) > 1 {
			cc.Seed++ // shards replay a different trace than the prior pass
		}
		return tracegen.MustNew(cc), nil
	}
	if _, _, err := ShardedRun(opts); err == nil {
		t.Fatal("sharded run over a diverging trace passed verification")
	}
}

// TestApproxShardedWithinTolerance: with a 64K-reference warm-up, every
// hit ratio of the approximate sharded run must agree with the sequential
// run within 1e-3.
func TestApproxShardedWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-thousand-reference run")
	}
	cfg := testMachine(system.VR, 2)
	tc := testWorkload(t, "pops", 0.1, 2) // ~329k references
	seq := build(t, cfg, tc)
	if err := seq.Run(tracegen.MustNew(tc)); err != nil {
		t.Fatal(err)
	}
	shard, outcome, err := ShardedRun(shardOpts(cfg, tc, 4, 65536, false))
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Mode != "approximate" || outcome.Warmup != 65536 {
		t.Errorf("outcome = %+v", outcome)
	}
	if shard.Refs() != seq.Refs() {
		t.Errorf("sharded run measured %d references, sequential %d", shard.Refs(), seq.Refs())
	}
	a, b := seq.Aggregate(), shard.Aggregate()
	ratios := [][3]interface{}{
		{"L1 overall", a.L1.Overall, b.L1.Overall},
		{"L1 read", a.L1.DataRead, b.L1.DataRead},
		{"L1 write", a.L1.DataWrite, b.L1.DataWrite},
		{"L1 ifetch", a.L1.Instr, b.L1.Instr},
		{"L2 overall", a.L2.Overall, b.L2.Overall},
		{"L2 read", a.L2.DataRead, b.L2.DataRead},
		{"L2 write", a.L2.DataWrite, b.L2.DataWrite},
		{"L2 ifetch", a.L2.Instr, b.L2.Instr},
	}
	for _, r := range ratios {
		name, want, got := r[0].(string), r[1].(float64), r[2].(float64)
		if d := math.Abs(want - got); d > 1e-3 {
			t.Errorf("%s: sequential %.6f, sharded %.6f (|Δ| = %.2e > 1e-3)", name, want, got, d)
		}
	}
}

// TestShardedRunValidation rejects unusable options.
func TestShardedRunValidation(t *testing.T) {
	cfg := testMachine(system.VR, 1)
	tc := testWorkload(t, "pops", 0.001, 1)
	bad := []ShardOptions{
		{},
		func() ShardOptions { o := shardOpts(cfg, tc, 0, 0, false); return o }(),
		func() ShardOptions { o := shardOpts(cfg, tc, 2, 0, false); o.TotalRefs = 0; return o }(),
		func() ShardOptions { o := shardOpts(cfg, tc, 2, 0, false); o.Source = nil; return o }(),
		func() ShardOptions { o := shardOpts(cfg, tc, 2, 0, false); o.NewSystem = nil; return o }(),
	}
	for i, o := range bad {
		if _, _, err := ShardedRun(o); err == nil {
			t.Errorf("case %d: bad options accepted", i)
		}
	}
}

// TestSingleShardApproxMatchesSequential: one shard with no warm-up is the
// sequential run, so even approximate mode must be byte-identical.
func TestSingleShardApproxMatchesSequential(t *testing.T) {
	cfg := testMachine(system.RRInclusion, 2)
	tc := testWorkload(t, "abaqus", 0.005, 2)
	want := runUninterrupted(t, cfg, tc)
	sys, _, err := ShardedRun(shardOpts(cfg, tc, 1, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, sys, cfg); !bytes.Equal(want, got) {
		t.Errorf("single-shard report diverges:\nsequential:\n%s\nsharded:\n%s", want, got)
	}
}
