// Command bench is the repository's benchmark: it runs one named
// workload against the serving engine (internal/server) and prints
// every end-to-end metric by name and unit, after checking the answers
// against an independent in-process reference. With --trace 1 it runs
// the traced variant instead and prints per-layer metrics. See
// README.md in this directory for the workloads, the metrics and the
// layer map.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 _bench/run.py --workload tcp-zipf --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result; the line before
// it is a diagnostics record (environment, sample counts, setup
// repetitions, verification outcome).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

func main() {
	var (
		wname   = flag.String("workload", "", "workload name: tcp-zipf | http-restore | lazy-uniform")
		seed    = flag.Int64("seed", 1, "workload seed: graph, pair streams and verification sample derive from it")
		seconds = flag.Int("seconds", 10, "length of the timed serving window")
		traced  = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		dir     = flag.String("dir", ".bench_build", "scratch directory for snapshots and span files")
		role    = flag.String("role", "run", "internal: run | reference | snapshot")
		snapArg = flag.String("snapshot", "", "internal: snapshot path for --role snapshot")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := dispatch(*role, *wname, *seed, *seconds, *traced == 1, *dir, *snapArg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(role, wname string, seed int64, seconds int, traced bool, dir, snapPath string) error {
	w, err := findWorkload(wname)
	if err != nil {
		return err
	}
	switch role {
	case "reference":
		out, err := runReference(w, seed)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(out)
	case "snapshot":
		return writeSnapshot(w, seed, snapPath)
	case "run":
	default:
		return fmt.Errorf("unknown role %q", role)
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	res, diag, err := runWorkload(w, seed, seconds, traced, dir)
	if err != nil {
		return err
	}
	// JSON has no NaN or infinity; a metric that could not be computed
	// (no samples, nothing verified) reads 0 and fails the run.
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[name] = metricValue{0, m.Unit}
			res.Correct = false
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(diag); err != nil {
		return err
	}
	return enc.Encode(res)
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
