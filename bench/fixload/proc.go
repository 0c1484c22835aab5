package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// parseKeyed finds "Key:   123 kB" in /proc/<pid>/status-style text
// and returns the number (in the file's unit, kB for Vm* keys).
func parseKeyed(text []byte, key string) (int64, error) {
	for _, line := range strings.Split(string(text), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc %s: %w", key, err)
		}
		return n, nil
	}
	return 0, fmt.Errorf("proc: key %q not found", key)
}

// procCPU reads the CPU time a live process has consumed (user and
// system, every thread) from its POSIX CPU-time clock. It is the same
// quantity as utime+stime in /proc/<pid>/stat, at nanosecond instead of
// 10 ms resolution, which is what lets the harness charge CPU to single
// operations.
func procCPU(pid int) (time.Duration, error) {
	// The clock id of another process's CPU-time clock, as
	// clock_getcpuclockid(3) builds it: ^pid << 3 | CPUCLOCK_SCHED.
	id := int32(^pid)<<3 | 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU clock of pid %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// pinnedEnv marks a harness process that has already confined itself.
const pinnedEnv = "FIXLOAD_PINNED_CPU"

// pinToOneCPU confines the harness, and so every process it starts, to
// the last CPU it is allowed on, and returns that CPU's number (-1 when
// the process is left as it was). The sandbox's two vCPUs are scheduled
// apart by the guest for a second at a time and slowed independently by
// the host's other tenants, so how much of a second CPU a request gets
// is luck; on one CPU the load generator and the server simply take
// turns, and a number measures the code. The affinity is set on this
// thread and the binary re-executed, so that the Go runtime of the new
// image (and of fixserve and fixindex, which inherit the mask) sizes
// itself for one CPU.
func pinToOneCPU() (int, error) {
	if v := os.Getenv(pinnedEnv); v != "" {
		return strconv.Atoi(v)
	}
	var mask [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return -1, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i, w := range mask {
		if w != 0 {
			cpu = 64*i + bits.Len64(w) - 1
		}
	}
	if cpu < 0 {
		return -1, errors.New("sched_getaffinity: empty mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	runtime.LockOSThread()
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		runtime.UnlockOSThread()
		return -1, fmt.Errorf("sched_setaffinity: %w", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return -1, err
	}
	err = syscall.Exec(exe, os.Args, append(os.Environ(), pinnedEnv+"="+strconv.Itoa(cpu)))
	return -1, fmt.Errorf("re-executing %s: %w", exe, err)
}

// procPeakRSSMB reads a live process's peak resident set (VmHWM).
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseKeyed(b, "VmHWM")
	return float64(kb) / 1024, err
}

// procWriteBytes reads a live process's storage-layer write count
// (write_bytes of /proc/<pid>/io: bytes the process caused to be sent to
// the block layer — sockets and pipes do not count, unlike wchar).
func procWriteBytes(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	return parseKeyed(b, "write_bytes")
}
