package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// hostRecord describes the machine and build a run measured, so figures
// from different hosts can be compared as ratios to the same-run
// reference kernel.
type hostRecord struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Trace        bool    `json:"trace"`
	Crossover    float64 `json:"crossover_ratio"`
	RefKernelUS  float64 `json:"ref_kernel_us"`
}

func newHostRecord(workload string, seed uint64, trace bool) hostRecord {
	return hostRecord{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(),
		SourceDigest: sourceDigest("."),
		Workload:     workload,
		Seed:         seed,
		Trace:        trace,
		RefKernelUS:  refKernel(),
	}
}

// gitCommit returns HEAD's commit when the checkout is a git work tree,
// "unknown" otherwise.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root (build
// outputs and dot-directories excluded): an identity for the measured code
// that holds in checkouts without git metadata.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// refKernel times a fixed 128×128 float64 matrix product, the same-run
// reference: the median of seven repetitions, in microseconds. It shares
// no code with the program, so a program change cannot move it.
func refKernel() float64 {
	const n = 128
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) / 7
		b[i] = float64(i%5) / 5
	}
	var times []float64
	sink := 0.0
	for rep := 0; rep < 7; rep++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				for j := 0; j < n; j++ {
					c[i*n+j] += aik * b[k*n+j]
				}
			}
		}
		times = append(times, float64(time.Since(t).Nanoseconds())/1e3)
		sink += c[rep]
	}
	if sink < 0 {
		times[0] = 0 // unreachable: keeps the product live
	}
	return median(times)
}
