//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package sim

// processCPU is the CPU time the process has used so far, or -1 where the
// host does not say — as here, so a wide auto pool never retires.
func processCPU() int64 { return -1 }
