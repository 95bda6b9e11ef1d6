// Package outofscope has the same substrate accesses as the shardflow
// scoped fixture but is checked under a package path outside the sim/locks
// scopes and with no dispatch root reaching it: the harness owns the whole
// space and may peek freely, so no findings are expected.
package outofscope

import (
	"alock/internal/mem"
	"alock/internal/ptr"
)

// peek reads a word directly; fine outside the engine scopes.
func peek(s *mem.Space, p ptr.Ptr) uint64 {
	return *s.WordAddr(p)
}

// regionPeek goes through the region; also fine here.
func regionPeek(s *mem.Space, p ptr.Ptr) uint64 {
	return *s.Region(p.NodeID()).WordAddr(p.Offset())
}
