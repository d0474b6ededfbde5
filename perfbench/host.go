package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// header is the host and noise record every result carries.
type header struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Binary     string `json:"binary_sha256"`
	// DataDirFS is the filesystem type of the scand data directory.
	DataDirFS string `json:"data_dir_fs,omitempty"`
	// FleetPollMS is the fleet workers' idle claim poll.
	FleetPollMS float64 `json:"fleet_poll_ms,omitempty"`
	// LeaseTTLMS is the scand lease TTL.
	LeaseTTLMS float64 `json:"lease_ttl_ms,omitempty"`
	// StealShare is the CPU steal share of the host over the timed
	// section(s), from /proc/stat; StealTicks is the raw tick count.
	StealShare float64 `json:"steal_share"`
	StealTicks uint64  `json:"steal_ticks"`
	Started    string  `json:"started"`
}

func newHeader(opt options) header {
	return header{
		Workload:   opt.workload,
		Seed:       opt.seed,
		Trace:      opt.trace,
		Seconds:    int(opt.seconds / time.Second),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     opt.commit,
		Binary:     binaryDigest(),
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// binaryDigest identifies the build: the first 16 hex digits of the
// running executable's SHA-256. Determinism records are keyed by it.
func binaryDigest() string {
	path, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSMiB is the process's peak resident set (VmHWM). Every run is
// its own process, so nothing carries over from another workload.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling OS thread's CPU time; the caller must hold
// runtime.LockOSThread for two readings to be comparable.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// hostTicks reads the aggregate "cpu" line of /proc/stat: the total of
// its first eight fields and the steal field.
func hostTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// section measures one timed section: wall and process CPU time, host
// steal, and the Go runtime's allocation and GC counts.
type section struct {
	start          time.Time
	cpu0           time.Duration
	total0, steal0 uint64
	mem0           runtime.MemStats

	Wall, CPU  time.Duration
	TotalTicks uint64
	StealTicks uint64
	AllocBytes uint64
	Mallocs    uint64
	GCCycles   uint32
}

func beginSection() *section {
	s := &section{}
	runtime.ReadMemStats(&s.mem0)
	s.total0, s.steal0 = hostTicks()
	s.cpu0 = cpuTime()
	s.start = time.Now()
	return s
}

func (s *section) end() {
	s.Wall = time.Since(s.start)
	s.CPU = cpuTime() - s.cpu0
	total, steal := hostTicks()
	s.TotalTicks, s.StealTicks = total-s.total0, steal-s.steal0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.AllocBytes = m.TotalAlloc - s.mem0.TotalAlloc
	s.Mallocs = m.Mallocs - s.mem0.Mallocs
	s.GCCycles = m.NumGC - s.mem0.NumGC
}

// noteSteal folds a section's steal ticks into the header.
func (r *run) noteSteal(s *section) {
	r.header.StealTicks += s.StealTicks
	r.stealTotal += s.TotalTicks
	r.header.StealShare = ratio(float64(r.header.StealTicks), float64(r.stealTotal))
}
