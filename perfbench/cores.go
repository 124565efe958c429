package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// coreSlice is how long the application loop stays on one CPU.
const coreSlice = 100 * time.Millisecond

// rotor moves a single-threaded loop from one of the process's allowed
// CPUs to the next every coreSlice, so that each window runs on every
// CPU for about the same time. On a shared host the CPUs need not be
// equally fast: on the 2-core reference machine one CPU ran a fixed
// serial loop at a steady 0.67 of the other's best speed for minutes,
// and a single-threaded embed-binomial run measured whichever CPU the
// scheduler had placed it on (per-row CPU time 0.55 or 0.74 us by run).
type rotor struct {
	cpus  []int
	next  int
	moved time.Time
}

// startRotor locks the calling goroutine to its thread and pins the
// thread to the first allowed CPU. It returns nil, leaving the thread
// alone, when fewer than two CPUs are allowed or an affinity call
// fails.
func startRotor() *rotor {
	var set cpuMask
	if err := set.get(); err != nil {
		return nil
	}
	r := &rotor{cpus: set.cpus()}
	if len(r.cpus) < 2 {
		return nil
	}
	runtime.LockOSThread()
	if err := r.move(); err != nil {
		runtime.UnlockOSThread()
		return nil
	}
	return r
}

// tick moves the thread to the next CPU once the slice is over. It is
// called between operations, outside their timing.
func (r *rotor) tick() {
	if r != nil && time.Since(r.moved) >= coreSlice {
		r.move()
	}
}

func (r *rotor) move() error {
	var m cpuMask
	m.add(r.cpus[r.next])
	if err := m.set(); err != nil {
		return err
	}
	r.next = (r.next + 1) % len(r.cpus)
	r.moved = time.Now()
	return nil
}

// stop gives the thread back every allowed CPU and unlocks it.
func (r *rotor) stop() {
	if r == nil {
		return
	}
	var m cpuMask
	for _, c := range r.cpus {
		m.add(c)
	}
	m.set()
	runtime.UnlockOSThread()
}

// cpuMask is the kernel's CPU set for sched_{get,set}affinity, sized
// as glibc's cpu_set_t (1024 CPUs).
type cpuMask [16]uint64

func (m *cpuMask) add(cpu int) { m[cpu/64] |= 1 << (cpu % 64) }

func (m *cpuMask) cpus() []int {
	var out []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			out = append(out, c)
		}
	}
	return out
}

// get reads the calling thread's allowed CPUs.
func (m *cpuMask) get() error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// set restricts the calling thread to the CPUs in m.
func (m *cpuMask) set() error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}
