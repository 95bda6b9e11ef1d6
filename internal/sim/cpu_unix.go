//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package sim

import "syscall"

// processCPU is the CPU time the process has used so far, user and system,
// in ns, or -1 where the host does not say.
func processCPU() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return -1
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
