package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// hostInfo is the host block every result carries.
type hostInfo struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	CPUs          int    `json:"cpus"`
	GomaxprocsD   int    `json:"gomaxprocs_valoisd"`
	GomaxprocsGen int    `json:"gomaxprocs_generator"`
	GoVersion     string `json:"go_version"`
	Kernel        string `json:"kernel"`
	AOFFilesystem string `json:"aof_fs"` // the filesystem valoisd's data directory is on
}

func newHostInfo(w *workload, seed int64, dataDir string) hostInfo {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return hostInfo{
		Workload:      w.name,
		Seed:          seed,
		CPUs:          runtime.NumCPU(),
		GomaxprocsGen: runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Kernel:        strings.TrimSpace(string(kernel)),
		AOFFilesystem: fsType(dataDir),
	}
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	case 0x2fc12fc1:
		return "zfs"
	default:
		return fmt.Sprintf("0x%x", uint64(st.Type))
	}
}
