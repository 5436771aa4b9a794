// Command compare reports, for every metric on every workload, whether a
// head set of benchmark runs improved on, is worse than, or cannot be told
// apart from a base set. Each set is a directory of the run reports
// perfbench writes (<workload>-seed<n>-trace<0|1>.json under
// .bench_build/results); runs pair up by seed order. The rule: a side wins
// only when it is better in at least nine tenths of the pairs and the
// medians differ by more than the base runs' interquartile range. Every
// ratio is printed with its base.
//
//	cd perfbench && go run ./cmd/compare -base ../base-results -head ../head-results
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rlibm/perfbench/measure"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runReport is the part of a perfbench run report compare reads.
type runReport struct {
	Fingerprint struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Trace    bool   `json:"trace"`
	} `json:"fingerprint"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	var (
		base  = flag.String("base", "", "directory of the base runs' reports")
		head  = flag.String("head", "", "directory of the head runs' reports")
		bench = flag.String("bench", "../BENCHMARK.json", "benchmark description giving each metric's unit and direction")
	)
	flag.Parse()
	if err := run(*base, *head, *bench); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

// key groups values by workload, trace mode and metric.
type key struct {
	workload string
	trace    bool
	metric   string
}

func load(dir string) (map[key][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*-seed*-trace*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no run reports in %s", dir)
	}
	var reps []runReport
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r runReport
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		reps = append(reps, r)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].Fingerprint.Seed < reps[j].Fingerprint.Seed })
	out := map[key][]float64{}
	for _, r := range reps {
		for name, m := range r.Metrics {
			k := key{r.Fingerprint.Workload, r.Fingerprint.Trace, name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out, nil
}

func run(baseDir, headDir, benchPath string) error {
	if baseDir == "" || headDir == "" {
		return errors.New("-base and -head are required")
	}
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	specs := map[string]metricSpec{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		specs[m.Name] = m
	}
	base, err := load(baseDir)
	if err != nil {
		return err
	}
	head, err := load(headDir)
	if err != nil {
		return err
	}
	keys := make([]key, 0, len(base))
	for k := range base {
		if _, ok := head[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return !a.trace
		}
		return a.metric < b.metric
	})
	fmt.Printf("%-8s %-36s %-10s %9s %-28s %-28s %s\n", "workload", "metric", "verdict", "wins h/b", "base median [q1,q3]", "head median [q1,q3]", "head/base")
	for _, k := range keys {
		s, ok := specs[k.metric]
		if !ok {
			continue
		}
		c, err := measure.Compare(base[k], head[k], s.Better == "higher")
		if err != nil {
			fmt.Printf("%-8s %-36s %-10s %s\n", k.workload, k.metric, measure.Unresolved, err)
			continue
		}
		ratio := "n/a (base median 0)"
		if c.BaseMedian != 0 {
			ratio = fmt.Sprintf("%.4f of base %.6g %s", c.HeadMedian/c.BaseMedian, c.BaseMedian, s.Unit)
		}
		fmt.Printf("%-8s %-36s %-10s %4d/%-4d %-28s %-28s %s\n", k.workload, k.metric, c.Verdict,
			c.HeadWins, c.BaseWins,
			fmt.Sprintf("%.6g [%.6g,%.6g]", c.BaseMedian, c.BaseQ1, c.BaseQ3),
			fmt.Sprintf("%.6g [%.6g,%.6g]", c.HeadMedian, c.HeadQ1, c.HeadQ3), ratio)
	}
	return nil
}
