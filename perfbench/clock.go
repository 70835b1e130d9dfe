package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Every time and rate is reported in reference time: the time the same
// work would take on a host that runs the probe below at
// probeRefSpeed. A shared host's cores change speed by a quarter over
// minutes as its other tenants come and go; a probe run beside the
// work, on the clock the work is timed on, measures by how much.
// dse-sweep times each pass on the process CPU clock and probes on the
// thread CPU clock between passes; remote-sessions runs on the wall
// clock and probes on it between sessions.

// Linux's CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID.
const (
	clockProcessCPUTimeID = 2
	clockThreadCPUTimeID  = 3
)

// processCPU returns the CPU time every thread of this process has
// used so far: the simulator's own thread, the Go collector and every
// other goroutine's. Time the host gives to other tenants, or the
// scheduler to other processes, does not count.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

const (
	// probeRefSpeed is the reference host's probe speed, in million
	// probe steps per CPU second: about what a 2-vCPU Xeon VM gives.
	probeRefSpeed = 300.0
	// probeSteps sizes one probe at about 20 ms.
	probeSteps = 6_000_000
	// probeWords is the probe's table: 1 MB, about the simulator's
	// hot working set, so the probe feels the same cache pressure.
	probeWords = 1 << 18
)

var (
	probeTable [probeWords]uint32
	probeSink  uint32
)

// probeProgram is the probe's fixed instruction sequence.
var probeProgram = [16]uint8{0, 1, 2, 3, 4, 5, 1, 2, 0, 6, 3, 7, 1, 4, 2, 5}

// probe measures the host's current speed, in million steps per CPU
// second of its own thread, with a fixed register-machine interpreter
// over a 1 MB table: dispatch, branches, loads and stores like the
// simulator's, but none of the program's code, so a change to the
// program cannot move it.
func probe() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	return probeOn(func() time.Duration { return cpuClock(clockThreadCPUTimeID) })
}

// wallProbe is probe timed on the wall clock, for work timed on the
// wall clock: it also slows by the time the host takes the core away.
func wallProbe() float64 {
	t0 := time.Now()
	return probeOn(func() time.Duration { return time.Since(t0) })
}

// probeOn runs the probe and returns its speed on clock.
func probeOn(clock func() time.Duration) float64 {
	t0 := clock()
	var r [8]uint32
	r[1] = 12345
	pc := 0
	for i := 0; i < probeSteps; i++ {
		op := probeProgram[pc]
		pc = (pc + 1) & 15
		switch op {
		case 0:
			r[1] = r[1]*1664525 + 1013904223
		case 1:
			r[2] = probeTable[r[1]>>14]
		case 2:
			r[3] += r[2] ^ r[1]
		case 3:
			probeTable[(r[3]>>7)&(probeWords-1)] = r[3]
		case 4:
			if r[3]&1 == 0 {
				r[4]++
			} else {
				r[5] += r[4]
			}
		case 5:
			r[6] = r[5]*3 + r[2]
		case 6:
			r[7] ^= r[6] >> 3
		default:
			r[0] += r[7]
		}
	}
	probeSink += r[0]
	return probeSteps / (clock() - t0).Seconds() / 1e6
}

// refDuration converts d of process CPU time, spent while the host ran
// the probe at speed, into reference time.
func refDuration(d time.Duration, speed float64) time.Duration {
	return time.Duration(float64(d) * speed / probeRefSpeed)
}
