package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// While the real-path load runs, the generator is held to the first half
// of the host's CPUs, with one Go thread per CPU. A generator free to take
// any core takes it from the stores it measures, and how much it took
// moved from run to run. Held to its share it is a client of fixed
// capacity, as the switch it stands for is separate hardware. The stores
// get the other half (realWorkload.storeProcs, realWorkload.storeCPUs).

// startCPUs are the CPUs the process may run on at start, before any
// pinning.
var startCPUs = func() []int {
	var mask [16]uint64
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	var cpus []int
	for c := 0; e == 0 && c < len(mask)*64; c++ {
		if mask[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) == 0 {
		for c := 0; c < runtime.NumCPU(); c++ {
			cpus = append(cpus, c)
		}
	}
	return cpus
}()

// allCPUs lists the CPUs the process started with.
func allCPUs() []int { return append([]int(nil), startCPUs...) }

// genCPUs is the generator's share: the first half of the CPUs (all of
// them on a one-CPU host).
func genCPUs() []int {
	all := allCPUs()
	return all[:max(len(all)/2, 1)]
}

// spareCPUs are the CPUs the generator leaves free (none on a one-CPU
// host).
func spareCPUs() []int { return allCPUs()[len(genCPUs()):] }

// setAffinity pins thread tid (0 = the calling thread) to cpus.
func setAffinity(tid int, cpus []int) error {
	var mask [16]uint64 // 1024 CPUs
	for _, c := range cpus {
		mask[c/64] |= 1 << (c % 64)
	}
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid),
		unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if e != 0 {
		return fmt.Errorf("sched_setaffinity %d: %w", tid, e)
	}
	return nil
}

// pinSelf pins every thread of this process to cpus and sizes the Go
// scheduler to match. Threads started later inherit the mask.
func pinSelf(cpus []int) error {
	runtime.GOMAXPROCS(len(cpus))
	pinned := map[int]bool{}
	for {
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := false
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || pinned[tid] {
				continue
			}
			// A thread may exit between the listing and the call.
			if err := setAffinity(tid, cpus); err == nil {
				pinned[tid] = true
				fresh = true
			}
		}
		if !fresh {
			return nil
		}
	}
}
