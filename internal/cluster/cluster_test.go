package cluster

import (
	"math"
	"testing"
)

func TestLinkPresetsSane(t *testing.T) {
	if GigabitEthernet.TransferTime(1e6) >= Internet.TransferTime(1e6) {
		t.Fatal("GigE not faster than Internet")
	}
}

func TestIslandMakespanSyncVsAsyncHeterogeneous(t *testing.T) {
	// On a heterogeneous cluster, sync islands pay the slowest node every
	// generation; async islands only pay it once overall — async must be
	// at least as fast, strictly faster with heterogeneity.
	nodes := []NodeSpec{{Speed: 1}, {Speed: 1}, {Speed: 0.25}}
	p := IslandProfile{Generations: 100, EvalsPerGen: 50, EvalCost: 1e-3, MigrationInterval: 10, MessageBytes: 1000}
	p.Sync = true
	syncT := IslandMakespan(nodes, GigabitEthernet, p)
	p.Sync = false
	asyncT := IslandMakespan(nodes, GigabitEthernet, p)
	// Both dominated by slowest node in this model, so equal here; on a
	// homogeneous cluster they differ only by migration cost.
	if asyncT > syncT {
		t.Fatalf("async (%v) slower than sync (%v)", asyncT, syncT)
	}
	if syncT-asyncT <= 0 {
		t.Fatalf("sync should pay migration barrier cost: sync=%v async=%v", syncT, asyncT)
	}
}

func TestIslandMakespanSpeedupShape(t *testing.T) {
	// Fixed total work split over k demes: near-linear modelled speedup
	// with slight degradation from migration cost.
	totalEvals := int64(100000)
	evalCost := 1e-4
	seq := float64(totalEvals) * evalCost // one speed-1 node, no communication
	prev := 0.0
	for _, k := range []int{2, 4, 8, 16} {
		p := IslandProfile{
			Generations:       100,
			EvalsPerGen:       float64(totalEvals) / float64(k) / 100,
			EvalCost:          evalCost,
			MigrationInterval: 10,
			MessageBytes:      1000,
			Sync:              true,
		}
		par := IslandMakespan(UniformNodes(k), GigabitEthernet, p)
		sp := Speedup(seq, par)
		if sp <= prev {
			t.Fatalf("speedup not increasing with demes: k=%d sp=%v prev=%v", k, sp, prev)
		}
		if sp > float64(k) {
			t.Fatalf("modelled speedup superlinear without cause: k=%d sp=%v", k, sp)
		}
		if Efficiency(sp, k) > 1 || Efficiency(sp, k) < 0.5 {
			t.Fatalf("efficiency implausible: k=%d eff=%v", k, Efficiency(sp, k))
		}
		prev = sp
	}
}

func TestIslandMakespanCrashDropsDeme(t *testing.T) {
	nodes := []NodeSpec{{Speed: 1}, {Speed: 1, CrashAt: 0.001}}
	p := IslandProfile{Generations: 10, EvalsPerGen: 100, EvalCost: 1e-3, Sync: true}
	withCrash := IslandMakespan(nodes, GigabitEthernet, p)
	healthy := IslandMakespan(UniformNodes(2), GigabitEthernet, p)
	if withCrash > healthy {
		t.Fatalf("dead deme should not extend sync barrier: %v > %v", withCrash, healthy)
	}
}

func TestMasterSlaveMakespanBasic(t *testing.T) {
	p := MasterSlaveProfile{Generations: 10, TasksPerGen: 100, EvalCost: 0.01, TaskBytes: 100}
	t1 := MasterSlaveMakespan(UniformNodes(1), GigabitEthernet, p)
	t4 := MasterSlaveMakespan(UniformNodes(4), GigabitEthernet, p)
	sp := Speedup(t1, t4)
	if sp < 3 || sp > 4 {
		t.Fatalf("4-worker speedup %v outside (3,4]", sp)
	}
}

func TestMasterSlaveMakespanCrashRecovery(t *testing.T) {
	p := MasterSlaveProfile{Generations: 5, TasksPerGen: 100, EvalCost: 0.01, TaskBytes: 100}
	healthy := MasterSlaveMakespan(UniformNodes(4), GigabitEthernet, p)
	// One worker dies early: run completes anyway, but slower.
	nodes := UniformNodes(4)
	nodes[3].CrashAt = 0.1
	withCrash := MasterSlaveMakespan(nodes, GigabitEthernet, p)
	if !(withCrash > healthy) {
		t.Fatalf("crash did not slow the run: %v vs %v", withCrash, healthy)
	}
	threeWorkers := MasterSlaveMakespan(UniformNodes(3), GigabitEthernet, p)
	if withCrash > threeWorkers*1.2 {
		t.Fatalf("crash recovery cost implausible: %v vs 3-worker %v", withCrash, threeWorkers)
	}
}

func TestMasterSlaveAllWorkersDeadMasterFallback(t *testing.T) {
	nodes := []NodeSpec{{Speed: 1, CrashAt: 1e-9}}
	p := MasterSlaveProfile{Generations: 2, TasksPerGen: 10, EvalCost: 0.01, TaskBytes: 10}
	got := MasterSlaveMakespan(nodes, GigabitEthernet, p)
	if math.Abs(got-0.2) > 0.05 { // 20 tasks * 0.01 on the master
		t.Fatalf("master fallback makespan %v, want ≈0.2", got)
	}
}

func TestSpeedupEfficiencyEdgeCases(t *testing.T) {
	if Speedup(1, 0) != 0 || Efficiency(4, 0) != 0 {
		t.Fatal("degenerate inputs should return 0")
	}
	if IslandMakespan(nil, LinkSpec{}, IslandProfile{Generations: 5}) != 0 {
		t.Fatal("empty cluster should cost 0")
	}
	if MasterSlaveMakespan(nil, LinkSpec{}, MasterSlaveProfile{Generations: 1}) != 0 {
		t.Fatal("empty worker set should cost 0")
	}
}
