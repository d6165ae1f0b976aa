// Command benchjson converts `go test -bench` output on stdin into the
// BENCH_<n>.json schema of scripts/bench.sh: one record per benchmark
// name with its iteration count and every reported metric (ns/op, B/op,
// allocs/op, and the b.ReportMetric custom units that carry the
// reproduction's headline numbers).
//
// Repeated measurements of the same benchmark (a `-count` run) collapse
// to the one with the smallest ns/op — the minimum is the standard
// noise-floor estimator on shared machines, where interference only
// ever adds time. Beside it, such a record keeps the number of runs and,
// per metric, the median and the min–max range across all runs, so a
// comparison can tell a change from the noise.
//
// With -parent FILE, the document also records a second `go test -bench`
// output — the parent commit measured on the same machine, ideally in
// runs alternating with the change's — under "parent_benchmarks", with
// -parent-ref naming that commit:
//
//	go run ./scripts/benchjson -parent parent.txt -parent-ref 50a33c2 < change.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// record is one benchmark measurement line.
type record struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	// Runs, Median and Range are set for benchmarks measured more than
	// once: the run count, and per metric the median and [min, max]
	// over all runs. Metrics stays the fastest run's.
	Runs   int                   `json:"runs,omitempty"`
	Median map[string]float64    `json:"median,omitempty"`
	Range  map[string][2]float64 `json:"range,omitempty"`
}

// output is the BENCH_<n>.json document.
type output struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPU       string `json:"cpu,omitempty"`
	// GOMAXPROCS records the recording machine's parallelism: the
	// Workers knobs clamp to it, so workers=N variants above it measure
	// the clamped pool (scalecheck uses this to tell a real scaling
	// check from a vacuous one).
	GOMAXPROCS int      `json:"gomaxprocs"`
	Benches    []record `json:"benchmarks"`
	// ParentRef and ParentBenches hold the -parent measurement.
	ParentRef     string   `json:"parent,omitempty"`
	ParentBenches []record `json:"parent_benchmarks,omitempty"`
}

func main() {
	parent := flag.String("parent", "", "`file` of go test -bench output measured on the parent commit")
	parentRef := flag.String("parent-ref", "", "name of the parent commit")
	flag.Parse()
	out := output{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var err error
	if out.CPU, out.Benches, err = parse(os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if *parent != "" {
		f, err := os.Open(*parent)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		_, out.ParentBenches, err = parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: read parent:", err)
			os.Exit(1)
		}
		out.ParentRef = *parentRef
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: encode:", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output and returns the CPU line and one
// record per benchmark name, in first-seen order.
func parse(r io.Reader) (cpu string, benches []record, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	indexOf := map[string]int{}
	var runs [][]map[string]float64 // per record, every run's metrics
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if c, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = c
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Shape: Name  N  value unit  value unit ...
		if len(fields) < 4 || (len(fields)-2)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		rec := record{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			rec.Metrics[fields[i+1]] = v
		}
		if !ok {
			continue
		}
		if j, seen := indexOf[rec.Name]; seen {
			runs[j] = append(runs[j], rec.Metrics)
			if rec.Metrics["ns/op"] < benches[j].Metrics["ns/op"] {
				benches[j] = rec
			}
			continue
		}
		indexOf[rec.Name] = len(benches)
		benches = append(benches, rec)
		runs = append(runs, []map[string]float64{rec.Metrics})
	}
	for j := range benches {
		summarize(&benches[j], runs[j])
	}
	return cpu, benches, sc.Err()
}

// summarize records the run count, medians and ranges of a benchmark
// measured more than once.
func summarize(rec *record, runs []map[string]float64) {
	if len(runs) < 2 {
		return
	}
	rec.Runs = len(runs)
	rec.Median = map[string]float64{}
	rec.Range = map[string][2]float64{}
	for unit := range rec.Metrics {
		var vs []float64
		for _, m := range runs {
			if v, ok := m[unit]; ok {
				vs = append(vs, v)
			}
		}
		slices.Sort(vs)
		med := vs[len(vs)/2]
		if len(vs)%2 == 0 {
			med = (vs[len(vs)/2-1] + vs[len(vs)/2]) / 2
		}
		rec.Median[unit] = med
		rec.Range[unit] = [2]float64{vs[0], vs[len(vs)-1]}
	}
}
