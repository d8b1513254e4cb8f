package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// catalog is what BENCHMARK.json declares: the workloads, the end-to-end
// metrics reported with tracing off and the per-layer metrics reported by
// the traced run. It is the one list of metric names and units; a run
// reports exactly the metrics of its list.
type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadCatalog reads BENCHMARK.json and checks that it declares exactly the
// workloads the command runs, in the same order.
func loadCatalog(path string) (*catalog, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(body, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var declared, known []string
	for _, w := range c.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		known = append(known, w.name)
	}
	if !slices.Equal(declared, known) {
		return nil, fmt.Errorf("%s declares workloads %v, the command runs %v", path, declared, known)
	}
	if len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no end-to-end or no per-layer metrics", path)
	}
	return &c, nil
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values for a catalog, refusing names it does not
// declare.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]metricValue{}}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// missing reports the declared metrics that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// result is the last line the command prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// meanMS is the mean of ds in milliseconds, 0 for none.
func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

// resetPeakRSS lowers the process's resident-set high-water mark to its
// current resident set, so that a workload run after another in the same
// process reports its own peak.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// geomeanMS is the geometric mean of ds in milliseconds, 0 for none.
func geomeanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum float64
	for _, d := range ds {
		sum += math.Log(ms(d))
	}
	return math.Exp(sum / float64(len(ds)))
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
