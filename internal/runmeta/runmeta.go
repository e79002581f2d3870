// Package runmeta stamps benchmark artifacts with the context a number
// was measured in. Wall-clock results (selection times, sustained
// selections/sec) are only comparable across the BENCH_*.json trajectory
// when each file records the host and build that produced it; Meta is
// that record, shared by espresso bench and espresso load.
package runmeta

import (
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Meta identifies one measurement run.
type Meta struct {
	// Date is the run's start time in UTC, RFC 3339.
	Date string `json:"date"`
	// Seed is the workload seed for randomized harnesses; 0 means the
	// workload is fixed (espresso bench's model zoo is deterministic).
	Seed       uint64 `json:"seed"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// GitRev is the source revision (12 hex digits, "+dirty" when the
	// worktree had modifications), empty when neither the build info nor
	// a git binary could supply one.
	GitRev string `json:"git_rev,omitempty"`
	// WallClockS is the run's total wall-clock duration in seconds,
	// stamped by the harness when the run finishes.
	WallClockS float64 `json:"wall_clock_s,omitempty"`
}

// Collect snapshots the current process's run context. The revision
// comes from the binary's embedded VCS stamp when present and falls back
// to asking git; a missing revision leaves GitRev empty rather than
// failing, since measurement hosts without git metadata are legitimate.
func Collect() Meta {
	return Meta{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitRev:     gitRev(),
	}
}

func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
