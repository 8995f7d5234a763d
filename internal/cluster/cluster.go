// Package cluster is the wall-clock cost model of the modelled experiments:
// a description of a machine room (NodeSpec, LinkSpec and the interconnect
// presets) and closed-form makespan functions over it (model.go).
//
// Why modelled: the survey's quantitative parallel claims — linear and
// super-linear speedup on clusters of workstations (Alba & Troya 2001),
// master–slave superiority on heterogeneous Beowulfs with hard failures
// (Gagné 2003), scalability to many processors (Rivera 2001, Pelikan
// 2002) — were measured on multi-machine testbeds this reproduction does
// not have. The makespan functions take a run profile measured on the real
// engines (generations, evaluations per generation, cost per evaluation,
// migration schedule) and charge it against the described hardware:
// compute by node speed, messages by latency and bandwidth, barriers by
// the slowest survivor, crashes by lost work. Nothing here executes a GA,
// passes a message or runs a clock — an explicit cost model in the sense
// of Harada, Alba & Luque — and EXPERIMENTS.md labels every number derived
// from it as "modelled". The *algorithmic* speedup measurements
// (evaluations to solution) run for real on the actual engines; only
// wall-clock is modelled.
package cluster

// NodeSpec describes one virtual machine in the cluster.
type NodeSpec struct {
	// Speed is the node's relative compute throughput (1.0 = nominal).
	Speed float64
	// CrashAt is the virtual time at which the node dies permanently;
	// 0 means it never crashes.
	CrashAt float64
}

// UniformNodes returns n nominal-speed, never-crashing nodes.
func UniformNodes(n int) []NodeSpec {
	out := make([]NodeSpec, n)
	for i := range out {
		out[i] = NodeSpec{Speed: 1}
	}
	return out
}

// LinkSpec describes the (uniform) interconnect, in the spirit of the
// survey's §3.1 network inventory: a LAN is high bandwidth/low latency, a
// WAN adds latency, jitter and loss.
type LinkSpec struct {
	// Latency is the per-message base delay (seconds).
	Latency float64
	// BytesPerSec is the link bandwidth; 0 means infinite.
	BytesPerSec float64
	// Jitter is the maximum extra uniform random delay per message and
	// LossProb the probability a message is silently dropped. They
	// describe the link (the Internet preset has both); the closed-form
	// models charge TransferTime only, which excludes them.
	Jitter   float64
	LossProb float64
}

// Common interconnect presets, loosely matching the survey's technology
// list (Gigabit Ethernet, Internet).
var (
	// GigabitEthernet: ~100µs latency, ~125 MB/s.
	GigabitEthernet = LinkSpec{Latency: 100e-6, BytesPerSec: 125e6}
	// Internet: ~50ms latency, ~1 MB/s, 10ms jitter, 1% loss (the
	// DREAM-style wide-area setting of §4).
	Internet = LinkSpec{Latency: 50e-3, BytesPerSec: 1e6, Jitter: 10e-3, LossProb: 0.01}
)

// TransferTime returns the modelled delay for size bytes, excluding jitter.
func (l LinkSpec) TransferTime(size float64) float64 {
	t := l.Latency
	if l.BytesPerSec > 0 {
		t += size / l.BytesPerSec
	}
	return t
}
