package experiments

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "t1", "t2", "x1", "x10", "x11", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs %v want %v", got, want)
		}
	}
	for _, id := range got {
		if Describe(id) == "" {
			t.Errorf("%s has no description", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Small()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := Run("t1", Scale{}); err == nil {
		t.Fatal("invalid scale accepted")
	}
}

func TestScaleValidate(t *testing.T) {
	for _, s := range []Scale{Small(), Medium(), Full()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
	bad := Small()
	bad.WarmupDays = bad.Days
	if err := bad.Validate(); err == nil {
		t.Error("warmup >= days accepted")
	}
}

// smallRun is RunAll(Small()), run once per test binary: every
// per-experiment test below checks its table from this one run.
var smallRun struct {
	once   sync.Once
	tables []*metrics.Table
	err    error
}

func smallTables(t *testing.T) []*metrics.Table {
	t.Helper()
	smallRun.once.Do(func() { smallRun.tables, smallRun.err = RunAll(Small()) })
	if smallRun.err != nil {
		t.Fatal(smallRun.err)
	}
	return smallRun.tables
}

// smallTable returns experiment id's table at Small scale. In -short
// mode, where the slow experiments skip, it runs just that experiment.
func smallTable(t *testing.T, id string) *metrics.Table {
	t.Helper()
	if testing.Short() {
		tbl, err := Run(id, Small())
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	return smallTables(t)[slices.Index(IDs(), id)]
}

// percent parses a table cell like "63.2%".
func percent(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", cell, err)
	}
	return v
}

func TestT1Shape(t *testing.T) {
	tbl := smallTable(t, "t1")
	if len(tbl.Rows) != 15 {
		t.Fatalf("rows=%d want 15 apps", len(tbl.Rows))
	}
	// The aggregate note carries the headline; check the band via the note.
	if len(tbl.Notes) == 0 || !strings.Contains(tbl.Notes[0], "%") {
		t.Fatalf("missing aggregate note: %v", tbl.Notes)
	}
	// Parse "ads are X% of communication energy, Y% of total energy".
	var commPct, totPct float64
	if _, err := fmtSscanf(tbl.Notes[0], &commPct, &totPct); err != nil {
		t.Fatalf("parse note %q: %v", tbl.Notes[0], err)
	}
	if commPct < 55 || commPct > 75 {
		t.Errorf("ad share of comm energy %.1f%% outside the paper's 55-75%% band", commPct)
	}
	if totPct < 15 || totPct > 30 {
		t.Errorf("ad share of total energy %.1f%% outside the 15-30%% band", totPct)
	}
}

func fmtSscanf(note string, comm, tot *float64) (int, error) {
	// note: "aggregate: ads are 62.7% of communication energy, 21.9% of total energy"
	var c, tt float64
	n, err := sscanNote(note, &c, &tt)
	*comm, *tot = c, tt
	return n, err
}

func sscanNote(note string, c, t *float64) (int, error) {
	var err error
	fields := strings.Fields(note)
	n := 0
	for _, f := range fields {
		if strings.HasSuffix(f, "%") {
			v, perr := strconv.ParseFloat(strings.TrimSuffix(f, "%"), 64)
			if perr != nil {
				err = perr
				continue
			}
			if n == 0 {
				*c = v
			} else if n == 1 {
				*t = v
			}
			n++
		}
	}
	return n, err
}

func TestF1Shape(t *testing.T) {
	tbl := smallTable(t, "f1")
	// Column 1 = 3G J/ad: must fall as interval grows... actually it
	// RISES as the interval grows (less tail sharing), saturating at the
	// isolated cost. Check monotone nondecreasing and the 10s << 5m gap.
	var prev float64 = -1
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev-1e-9 {
			t.Fatalf("3G per-ad energy not nondecreasing in interval: %v", tbl.Rows)
		}
		prev = v
	}
	first, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	last, _ := strconv.ParseFloat(tbl.Rows[len(tbl.Rows)-1][1], 64)
	if last < 1.5*first {
		t.Fatalf("tail effect too weak: 5s=%.2fJ 5m=%.2fJ", first, last)
	}
	// WiFi column stays tiny everywhere.
	for _, row := range tbl.Rows {
		v, _ := strconv.ParseFloat(row[3], 64)
		if v > 0.5 {
			t.Fatalf("WiFi per-ad energy %.2fJ implausibly high", v)
		}
	}
}

func TestF3RanksPercentileModel(t *testing.T) {
	tbl := smallTable(t, "f3")
	var pctUnder, lastUnder float64
	for _, row := range tbl.Rows {
		switch row[0] {
		case "pctile-hist":
			pctUnder = mustFloat(t, row[4]) // 4h mean under
		case "last-period":
			lastUnder = mustFloat(t, row[4])
		}
	}
	if pctUnder >= lastUnder {
		t.Fatalf("percentile model under=%.3f should beat last-period %.3f", pctUnder, lastUnder)
	}
}

func TestF4PercentileMonotone(t *testing.T) {
	tbl := smallTable(t, "f4")
	// Under-frequency must fall (weakly) as the percentile rises.
	prev := 1000.0
	for _, row := range tbl.Rows {
		uf := percent(t, row[3])
		if uf > prev+2 { // small noise tolerance
			t.Fatalf("under-frequency not decreasing: %v", tbl.Rows)
		}
		prev = uf
	}
	// And over-prediction must grow from p50 to p99.
	over50 := mustFloat(t, tbl.Rows[0][2])
	over99 := mustFloat(t, tbl.Rows[len(tbl.Rows)-1][2])
	if over99 <= over50 {
		t.Fatalf("over-prediction should grow with percentile: p50=%v p99=%v", over50, over99)
	}
}

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestF7Headline(t *testing.T) {
	tbl := smallTable(t, "f7")
	// Find the 4h predictive row: saving must exceed 50%, SLA and revenue
	// loss must be negligible; oracle must save even more.
	var predSaving, oracleSaving, predViol, predLoss float64
	found := false
	for _, row := range tbl.Rows {
		if row[0] == "4h0m0s" && row[1] == "predictive" {
			predSaving = percent(t, row[3])
			predViol = percent(t, row[5])
			predLoss = percent(t, row[6])
			found = true
		}
		if row[0] == "4h0m0s" && row[1] == "oracle" {
			oracleSaving = percent(t, row[3])
		}
	}
	if !found {
		t.Fatalf("missing 4h predictive row:\n%s", tbl.String())
	}
	if predSaving < 50 {
		t.Errorf("headline saving %.1f%% below 50%%", predSaving)
	}
	if predViol > 3 {
		t.Errorf("SLA violations %.2f%% not negligible", predViol)
	}
	if predLoss > 5 {
		t.Errorf("revenue loss %.2f%% not negligible", predLoss)
	}
	if oracleSaving <= predSaving {
		t.Errorf("oracle saving %.1f%% should exceed predictive %.1f%%", oracleSaving, predSaving)
	}
}

func TestF5ReplicationHelps(t *testing.T) {
	tbl := smallTable(t, "f5")
	byK := map[string]float64{}
	for _, row := range tbl.Rows {
		byK[row[0]] = percent(t, row[2])
	}
	if byK["2"] >= byK["1"] {
		t.Errorf("k=2 (%.2f%%) should violate less than k=1 (%.2f%%)", byK["2"], byK["1"])
	}
	if byK["4"] >= byK["1"] {
		t.Errorf("k=4 (%.2f%%) should violate less than k=1 (%.2f%%)", byK["4"], byK["1"])
	}
}

func TestF6SyncDelayMonotone(t *testing.T) {
	tbl := smallTable(t, "f6")
	first := percent(t, tbl.Rows[0][2])
	last := percent(t, tbl.Rows[len(tbl.Rows)-1][2])
	if last < first {
		t.Errorf("revenue loss should not fall with slower sync: %v -> %v", first, last)
	}
}

func TestF9DeadlineMonotone(t *testing.T) {
	tbl := smallTable(t, "f9")
	tight := percent(t, tbl.Rows[0][1])
	loose := percent(t, tbl.Rows[len(tbl.Rows)-1][1])
	if tight <= loose {
		t.Errorf("tight deadlines (%.2f%%) should violate more than loose (%.2f%%)", tight, loose)
	}
}

func TestT2Throughput(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock throughput in -short mode")
	}
	tbl := smallTable(t, "t2")
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if mustFloat(t, row[1]) < 1000 {
			t.Errorf("auction throughput %s/s implausibly low", row[1])
		}
	}
}

func TestX2RadioGenerality(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sim experiment in -short mode")
	}
	tbl := smallTable(t, "x2")
	// 3G saving large, WiFi negligible (near zero either way).
	g := percent(t, tbl.Rows[0][3])
	if g < 40 {
		t.Errorf("3G saving %.1f%% too small", g)
	}
	wifiBase := mustFloat(t, tbl.Rows[2][1])
	if wifiBase > 20 {
		t.Errorf("WiFi on-demand %.1f J/user/day implausible", wifiBase)
	}
}

func TestX3RobustnessShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sim experiment in -short mode")
	}
	tbl := smallTable(t, "x3")
	byLabel := map[string][]string{}
	for _, row := range tbl.Rows {
		byLabel[row[0]] = row
	}
	none := percent(t, byLabel["none"][1])
	lost := percent(t, byLabel["50% reports lost"][1])
	if lost <= none {
		t.Errorf("lost reports should raise violations: %v vs %v", lost, none)
	}
	bare := percent(t, byLabel["30% churn, bare (k=1, no rescue)"][1])
	full := percent(t, byLabel["30% period churn"][1])
	if bare <= full {
		t.Errorf("bare system should violate more under churn: %v vs %v", bare, full)
	}
}

func TestX9EnergyDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP chaos replay")
	}
	tbl := smallTable(t, "x9")
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows=%d want 3 (fault-free, chaos s1, chaos s4)", len(tbl.Rows))
	}
	// Column 8 is "retry J": the fault-free baseline pays exactly zero,
	// every chaos row pays a positive premium — the energy delta the
	// acceptance criterion asks for.
	parse := func(row []string) float64 {
		v, err := strconv.ParseFloat(row[8], 64)
		if err != nil {
			t.Fatalf("parse retry J %q: %v", row[8], err)
		}
		return v
	}
	if j := parse(tbl.Rows[0]); j != 0 {
		t.Errorf("fault-free retry energy %v J, want 0", j)
	}
	for _, row := range tbl.Rows[1:] {
		if j := parse(row); j <= 0 {
			t.Errorf("chaos row %v: retry energy not positive", row)
		}
	}
}

func TestRunAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	tables := smallTables(t)
	if len(tables) != len(IDs()) {
		t.Fatalf("tables %d want %d", len(tables), len(IDs()))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Errorf("empty table %q", tbl.Title)
		}
	}
}

func TestX11BatchedWire(t *testing.T) {
	if testing.Short() {
		t.Skip("full HTTP replay x6")
	}
	tbl := smallTable(t, "x11")
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows=%d want 6 (sequential+batched at 1, 2, 4 shards)", len(tbl.Rows))
	}
	// Column 5 is "attempts": every batched row must spend strictly
	// fewer HTTP round trips than its sequential sibling (runX11 already
	// errored out unless the ledgers matched exactly).
	parse := func(row []string, col int) int64 {
		v, err := strconv.ParseInt(row[col], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", row[col], err)
		}
		return v
	}
	for i := 0; i < len(tbl.Rows); i += 2 {
		seqA, batA := parse(tbl.Rows[i], 5), parse(tbl.Rows[i+1], 5)
		if batA >= seqA {
			t.Errorf("shards row %d: batched attempts %d not below sequential %d", i/2, batA, seqA)
		}
		if saved := parse(tbl.Rows[i+1], 6); saved == 0 {
			t.Errorf("shards row %d: batched run saved no round trips", i/2)
		}
	}
}
