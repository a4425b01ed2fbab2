package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// record is one run as --out appends it: the result plus what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
}

// manifest is the part of BENCHMARK.json the comparison needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// deterministic names the end-to-end metrics that are functions of the
// inputs alone: two sets run on the same seeds must report them bit for
// bit, whatever the host did.
var deterministic = map[string]bool{"relative_error": true, "traffic_mb_per_op": true, "stages_per_op": true}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives — the driver's steadiness
// figure. Fewer than two values have no spread.
func quartileSpread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j, delta := i*(len(s)+1)/4, i*(len(s)+1)%4
		j = min(max(j, 1), len(s)-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / math.Abs(q(2))
}

// agreeFiles is the A/A tool: two sets of untraced runs of the same code
// must agree, per workload and end-to-end metric, within the bound
// BENCHMARK.json fixes; deterministic metrics must match exactly when the
// sets ran the same seeds; and each set's own quartile spread must stay
// within the bound too (setup_s excepted, as in the driver's check). It
// prints one row per pair and returns exit code 1 on any violation.
func agreeFiles(out io.Writer, manifestPath, pathA, pathB string) (int, error) {
	m, err := readManifest(manifestPath)
	if err != nil {
		return 2, err
	}
	sets := make([]map[string]map[string][]float64, 2) // set → workload → metric → values
	seeds := make([]map[string][]int64, 2)
	for i, p := range []string{pathA, pathB} {
		recs, err := readRecords(p)
		if err != nil {
			return 2, err
		}
		sets[i], seeds[i] = map[string]map[string][]float64{}, map[string][]int64{}
		for _, r := range recs {
			if r.Trace != 0 {
				continue
			}
			if sets[i][r.Workload] == nil {
				sets[i][r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				sets[i][r.Workload][name] = append(sets[i][r.Workload][name], v.Value)
			}
			seeds[i][r.Workload] = append(seeds[i][r.Workload], r.Seed)
		}
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\truns\tmedian A\tmedian B\tB vs A\tspread A\tspread B\tbound\t")
	violations := 0
	for _, wl := range m.Workloads {
		sameSeeds := fmt.Sprint(seeds[0][wl.Name]) == fmt.Sprint(seeds[1][wl.Name])
		for _, em := range m.EndToEnd {
			a, b := sets[0][wl.Name][em.Name], sets[1][wl.Name][em.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%d/%d\t\t\t\t\t\t\tMISSING\n", wl.Name, em.Name, len(a), len(b))
				violations++
				continue
			}
			ma, mb := median(a), median(b)
			diff := (mb - ma) / math.Abs(ma)
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := ""
			switch {
			case deterministic[em.Name] && sameSeeds && fmt.Sprint(a) != fmt.Sprint(b):
				verdict = "NOT IDENTICAL"
			case math.Abs(diff) > em.Bound:
				verdict = "MEDIANS DISAGREE"
			case em.Name != "setup_s" && math.Max(sa, sb) > em.Bound:
				verdict = "SPREAD OVER BOUND"
			}
			if verdict != "" {
				violations++
			}
			fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%.0f%%\t%s\n",
				wl.Name, em.Name, len(a), len(b), ma, mb, 100*diff, 100*sa, 100*sb, 100*em.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return 2, err
	}
	if violations > 0 {
		fmt.Fprintf(out, "%d violation(s)\n", violations)
		return 1, nil
	}
	fmt.Fprintln(out, "the two sets agree within every bound")
	return 0, nil
}
