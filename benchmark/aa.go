package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// aaCell is the A/A verdict for one end-to-end metric on one workload.
type aaCell struct {
	Workload string      `json:"workload"`
	Metric   string      `json:"metric"`
	Unit     string      `json:"unit"`
	Bound    float64     `json:"bound"`
	Sets     []aaSetStat `json:"sets"`
	// Shift is the largest share by which a later set's median is worse
	// than the first set's.
	Shift  float64 `json:"shift"`
	Breach string  `json:"breach,omitempty"`
}

// aaSetStat summarizes one set's values of one metric: the quartiles as
// Python's statistics.quantiles(values, n=4) gives them, the driver's
// spread (Q3-Q1)/median, and the range (max-min)/median.
type aaSetStat struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Range  float64   `json:"range"`
}

// runAA runs opts.aa sets of the whole suite on this code — every workload
// at seeds 1..aaSeeds, as the driver does — and checks each end-to-end
// metric on each workload against its own bound: the spread of every set
// (setup_s excepted) and the shift of every later set's median against the
// first. Each set also runs the layer pass at seed 1, whose exact counts
// must agree between sets. The report goes to benchmark/out/aa-report.json.
func runAA(ctx context.Context, e *env, opts options, w io.Writer) error {
	values := make(map[string][][]float64) // "workload/metric" → set → values
	var layerSets []map[string]float64
	failed := 0
	for set := 0; set < opts.aa; set++ {
		for _, name := range workloadNames {
			for seed := int64(1); seed <= int64(opts.sc.aaSeeds); seed++ {
				o := opts
				o.seed = seed
				res, err := runOne(ctx, e, o, name)
				if err != nil {
					return fmt.Errorf("set %d %s seed %d: %w", set+1, name, seed, err)
				}
				if !res.correct() {
					failed++
					fmt.Fprintf(w, "set %d %s seed %d FAILED: %v\n", set+1, name, seed, res.problems)
				}
				fmt.Fprintf(w, "set %d %-12s seed %2d:", set+1, name, seed)
				for _, d := range endToEnd {
					key := name + "/" + d.name
					for len(values[key]) <= set {
						values[key] = append(values[key], nil)
					}
					values[key][set] = append(values[key][set], res.metrics[d.name])
					fmt.Fprintf(w, " %s=%.4g", d.name, res.metrics[d.name])
				}
				fmt.Fprintln(w)
			}
		}
		o := opts
		o.seed, o.trace = 1, true
		res, err := runOne(ctx, e, o, workloadNames[0])
		if err != nil {
			return fmt.Errorf("set %d layer pass: %w", set+1, err)
		}
		if !res.correct() {
			failed++
			fmt.Fprintf(w, "set %d layer pass FAILED: %v\n", set+1, res.problems)
		}
		layerSets = append(layerSets, res.metrics)
	}

	var report struct {
		Scale   string   `json:"scale"`
		Sets    int      `json:"sets"`
		Seeds   int      `json:"seeds"`
		Cells   []aaCell `json:"cells"`
		Inexact []string `json:"inexact_counts"`
		Pass    bool     `json:"pass"`
	}
	report.Scale, report.Sets, report.Seeds = opts.sc.name, opts.aa, opts.sc.aaSeeds
	report.Inexact = []string{} // an empty list, not null, in the report
	breaches := 0
	fmt.Fprintf(w, "\n%-13s %-22s %6s | per set: median [q1 q3] spread range | shift\n", "workload", "metric", "bound")
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			cell := aaCell{Workload: name, Metric: d.name, Unit: d.unit, Bound: d.bound}
			for _, vs := range values[name+"/"+d.name] {
				q1, med, q3 := quartiles(vs)
				s := sorted(vs)
				st := aaSetStat{Values: vs, Q1: q1, Median: med, Q3: q3,
					Spread: (q3 - q1) / med, Range: (s[len(s)-1] - s[0]) / med}
				cell.Sets = append(cell.Sets, st)
				if d.name != "setup_s" && st.Spread > d.bound {
					cell.Breach = "spread"
				}
			}
			for _, st := range cell.Sets[1:] {
				shift := (st.Median - cell.Sets[0].Median) / cell.Sets[0].Median
				if d.higher {
					shift = -shift
				}
				if shift > cell.Shift {
					cell.Shift = shift
				}
			}
			if cell.Shift > d.bound {
				cell.Breach = "shift"
			}
			fmt.Fprintf(w, "%-13s %-22s %6.2f |", name, d.name, d.bound)
			for _, st := range cell.Sets {
				fmt.Fprintf(w, " %.4g [%.4g %.4g] %.3f %.3f |", st.Median, st.Q1, st.Q3, st.Spread, st.Range)
			}
			fmt.Fprintf(w, " %.3f %s\n", cell.Shift, cell.Breach)
			if cell.Breach != "" {
				breaches++
			}
			report.Cells = append(report.Cells, cell)
		}
	}
	for _, d := range perLayer {
		if !d.exact {
			continue
		}
		for _, m := range layerSets[1:] {
			if math.Float64bits(m[d.name]) != math.Float64bits(layerSets[0][d.name]) {
				report.Inexact = append(report.Inexact, d.name)
				fmt.Fprintf(w, "exact count %s differs between sets: %v vs %v\n", d.name, layerSets[0][d.name], m[d.name])
				break
			}
		}
	}
	report.Pass = breaches == 0 && failed == 0 && len(report.Inexact) == 0

	data, err := json.MarshalIndent(report, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(e.out, "aa-report.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nreport written to %s\n", path)
	if !report.Pass {
		return fmt.Errorf("A/A failed: %d bound breaches, %d incorrect runs, %d inexact counts", breaches, failed, len(report.Inexact))
	}
	return nil
}
