package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// provenance is what a result needs to be compared with another: where and
// on what it was taken.
type provenance struct {
	CPUModel      string `json:"cpu_model"`
	NumCPU        int    `json:"nproc"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	GoVersion     string `json:"go_version"`
	GitSHA        string `json:"git_sha"`
	Seed          int64  `json:"seed"`
	StoreDir      string `json:"store_dir"`
	StoreDirTmpfs bool   `json:"store_dir_tmpfs"`
	Edge          int    `json:"store_edge"`
	Passes        int    `json:"timed_passes"`
	Smoke         bool   `json:"smoke,omitempty"`
	// HostRefMedianMs is the median of the host reference kernel's runs
	// (see hostRef), interleaved with the passes.
	HostRefMedianMs float64 `json:"host_ref_ms"`
}

const tmpfsMagic = 0x01021994

func isTmpfs(dir string) bool {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return false
	}
	return int64(st.Type) == tmpfsMagic
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitSHA reads the checked-out commit without running git; a checkout that
// is not a repository (the benchmark driver's) reports "unknown".
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func gatherProvenance(root, storeDir string, seed int64, sz size) provenance {
	return provenance{
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitSHA: gitSHA(root), Seed: seed,
		StoreDir: storeDir, StoreDirTmpfs: isTmpfs(storeDir),
		Edge: sz.Edge, Passes: sz.Passes, Smoke: sz.Smoke,
	}
}

// minTmpfsFree is the room /dev/shm must have to be chosen: all five
// workloads' stores, with every repeated set-up, stay under a quarter of it.
const minTmpfsFree = 1 << 30

func freeBytes(dir string) uint64 {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return 0
	}
	return st.Bavail * uint64(st.Bsize)
}

// makeStoreDir creates this process's private store directory and returns
// a function that removes it. Without -dir the stores go under
// .bench_build/stores in the checkout when the checkout is itself on a
// tmpfs, else under /dev/shm when that is a writable tmpfs with room, else
// under .bench_build/stores all the same. A durable merge spends three
// quarters of its time in fsync on this host's disk, and that time swings
// by 2x with the other tenants of the machine; on a tmpfs the same merge
// costs the software's share only, and repeats.
func makeStoreDir(root, override string) (dir string, cleanup func(), err error) {
	local := filepath.Join(root, ".bench_build", "stores")
	parent := override
	if parent == "" {
		if err := os.MkdirAll(local, 0o755); err != nil {
			return "", nil, err
		}
		parent = local
		if !isTmpfs(local) && isTmpfs("/dev/shm") && freeBytes("/dev/shm") >= minTmpfsFree {
			parent = "/dev/shm"
		}
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", nil, err
	}
	dir, err = os.MkdirTemp(parent, fmt.Sprintf("shiftsplit-bench-%d-", os.Getpid()))
	if err != nil && override == "" && parent != local {
		// /dev/shm looked usable and was not; the checkout always is.
		dir, err = os.MkdirTemp(local, fmt.Sprintf("shiftsplit-bench-%d-", os.Getpid()))
	}
	if err != nil {
		return "", nil, err
	}
	return dir, func() { _ = os.RemoveAll(dir) }, nil // scratch data; nothing to report if removal fails
}
