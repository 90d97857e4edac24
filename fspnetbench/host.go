package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// host is the machine shape a record's numbers came from.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"goVersion"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func hostShape() host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// commit names the measured source: $FSPNETBENCH_COMMIT when set (a
// checkout exported without its .git), otherwise git's HEAD, otherwise
// "unknown".
func commit() string {
	if c := os.Getenv("FSPNETBENCH_COMMIT"); c != "" {
		return c
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
