// scale.go holds the preset sizes every scenario expansion builds its
// config grid from (internal/scenario).
//
// Note on cluster sizes: the paper's own pointer format (Section 6,
// Figure 3) reserves 4 bits for the node ID, which addresses at most 16
// nodes, yet the evaluation uses a 20-machine cluster. This reproduction
// keeps the 4-bit format exactly as specified, so the paper's "20 node"
// configurations run at 16 nodes here; the scaling shape is unaffected.
package harness

// MaxClusterNodes is the largest cluster the 4-bit node ID addresses; it
// stands in for the paper's 20-node configurations.
const MaxClusterNodes = 16

// Scale selects between the full reproduction and an abbreviated sweep
// with the same structure (fewer thread counts, fewer target ops).
//
// The override fields decouple individual scenarios from the global
// presets: a heavyweight scenario can pin its own thread list or stretch
// its measurement horizon without forking the preset logic. TestTiny wins
// over every override — smoke tests must stay smoke-test sized no matter
// what a scenario asks for.
type Scale struct {
	Quick bool
	// TestTiny shrinks every sweep to smoke-test size while keeping the
	// panel/series structure intact; used by unit tests and the figure
	// golden, never for reported results. It overrides the Override fields
	// below.
	TestTiny bool
	// Seed offsets every run's seed (0 = default).
	Seed int64

	// ThreadsOverride, when non-empty, replaces the preset per-node thread
	// counts (per-scenario scale override).
	ThreadsOverride []int
	// NodesOverride, when non-empty, replaces the preset cluster sizes;
	// its largest entry also caps BigClusterNodes.
	NodesOverride []int
	// TargetOpsOverride, when > 0, replaces the preset per-run op target.
	TargetOpsOverride int64
	// WarmupOverride/MeasureOverride, when > 0, replace the preset
	// warmup/measurement horizons (ns).
	WarmupOverride  int64
	MeasureOverride int64
}

// ThreadCounts returns the per-node thread counts the scale sweeps.
func (s Scale) ThreadCounts() []int {
	if s.TestTiny {
		return []int{2}
	}
	if len(s.ThreadsOverride) > 0 {
		return s.ThreadsOverride
	}
	if s.Quick {
		return []int{2, 8}
	}
	return []int{1, 2, 4, 8, 12}
}

// NodeCounts returns the cluster sizes the scale sweeps.
func (s Scale) NodeCounts() []int {
	if s.TestTiny {
		return []int{2, 3}
	}
	if len(s.NodesOverride) > 0 {
		return s.NodesOverride
	}
	if s.Quick {
		return []int{5, MaxClusterNodes}
	}
	return []int{5, 10, MaxClusterNodes}
}

// TargetOpsCount returns the per-run recorded-operation target.
func (s Scale) TargetOpsCount() int64 {
	if s.TestTiny {
		return 1_500
	}
	if s.TargetOpsOverride > 0 {
		return s.TargetOpsOverride
	}
	if s.Quick {
		return 20_000
	}
	return 90_000
}

// Windows returns the warmup and measurement windows in nanoseconds.
func (s Scale) Windows() (warmup, measure int64) {
	if s.TestTiny {
		return 50_000, 250_000
	}
	warmup, measure = 400_000, 4_000_000
	if s.Quick {
		warmup, measure = 200_000, 1_500_000
	}
	if s.WarmupOverride > 0 {
		warmup = s.WarmupOverride
	}
	if s.MeasureOverride > 0 {
		measure = s.MeasureOverride
	}
	return warmup, measure
}

// BigClusterNodes returns the stand-in for the paper's 20-node cluster. A
// scenario NodesOverride caps it (largest listed size), so overriding
// scenarios shrink their expansions too.
func (s Scale) BigClusterNodes() int {
	if s.TestTiny {
		return 3
	}
	if len(s.NodesOverride) > 0 {
		max := s.NodesOverride[0]
		for _, n := range s.NodesOverride[1:] {
			if n > max {
				max = n
			}
		}
		return max
	}
	return MaxClusterNodes
}

// DefaultSeed returns the effective seed (Seed, or 1 when unset).
func (s Scale) DefaultSeed() int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return 1
}
