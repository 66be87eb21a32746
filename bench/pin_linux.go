//go:build linux

package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The reader is a closed loop, so the driver and the servers take turns
// and one processor holds them all. On the reference machine (a shared
// 2-processor VM) that is also what repeats: with the reader and the
// servers free to wander, the median latency of point_single on one seed
// moved by ±15 % from run to run; with the driver held on one processor
// and the servers on the other, every request and reply woke a sleeping
// processor, and in stretches of minutes whole runs came out up to 30 %
// slower; with all of them on one processor the same runs stayed within
// a few per cent and were faster (bench/README.md, "Processor affinity").
// So, where the process may run on at least two processors, the driver
// re-executes itself on the last of them, and every process it starts
// inherits that. Affinity is set on the one thread that then calls exec,
// so every thread of the new program has it.

type cpuMask [16]uint64 // 1 024 processors

func allowedCPUs() []int {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// execOn replaces the process with argv, bound to one processor.
func execOn(cpu int, argv []string) error {
	runtime.LockOSThread()
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", cpu, errno)
	}
	return syscall.Exec(argv[0], argv, os.Environ())
}

// pinSelf confines the driver, and so every process it starts, to one
// processor, once. It returns only if the process stays as it is.
func pinSelf() {
	cpus := allowedCPUs()
	self, err := os.Executable()
	if os.Getenv(pinnedEnv) != "" || len(cpus) < 2 || err != nil {
		return
	}
	cpu := cpus[len(cpus)-1]
	os.Setenv(pinnedEnv, strconv.Itoa(cpu))
	os.Setenv(nprocEnv, strconv.Itoa(len(cpus)))
	if err := execOn(cpu, append([]string{self}, os.Args[1:]...)); err != nil {
		os.Unsetenv(pinnedEnv)
		fmt.Fprintln(os.Stderr, "bench: running unpinned:", err)
	}
}

// childAttr makes a started process die with the driver, so that a
// driver killed from outside leaves no server behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
