package metrics

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Fatalf("GeoMean(nil) = %v, want 0", got)
	}
	// Non-positive values are skipped, not fatal.
	if got := GeoMean([]float64{0, 4, 4}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("GeoMean(0,4,4) = %v, want 4", got)
	}
}

func TestGeoMeanProperty(t *testing.T) {
	// The geomean of positive values lies between min and max.
	f := func(raw []uint16) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			xs = append(xs, float64(r)+1)
		}
		if len(xs) == 0 {
			return true
		}
		g := GeoMean(xs)
		min, max := xs[0], xs[0]
		for _, x := range xs {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		return g >= min-1e-9 && g <= max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 4, 8}, 4)
	want := []float64{0.5, 1, 2}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-9 {
			t.Fatalf("Normalize = %v, want %v", out, want)
		}
	}
	if out := Normalize([]float64{1, 2}, 0); out[0] != 0 || out[1] != 0 {
		t.Fatal("zero base should yield zeros")
	}
}

func TestNormalizeToMax(t *testing.T) {
	out := NormalizeToMax([]float64{1, 5, 2})
	if out[1] != 1 || out[0] != 0.2 {
		t.Fatalf("NormalizeToMax = %v", out)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Figure X", "a", "b")
	tb.AddRow("r1", 1, 2)
	tb.AddRow("r2", 4, 8)
	gm := tb.GeoMeanRow("geomean")
	if math.Abs(gm[0]-2) > 1e-9 || math.Abs(gm[1]-4) > 1e-9 {
		t.Fatalf("geomean row = %v", gm)
	}
	if tb.Row("r1") == nil || tb.Row("missing") != nil {
		t.Fatal("Row lookup broken")
	}
	s := tb.String()
	for _, want := range []string{"Figure X", "r1", "geomean", "4.000"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestTableMismatchedRowPanics(t *testing.T) {
	tb := NewTable("t", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row did not panic")
		}
	}()
	tb.AddRow("bad", 1, 2)
}

func TestCSV(t *testing.T) {
	tb := NewTable("t", "a,b", "c")
	tb.AddRow("r,1", 1.5, 2)
	got := tb.CSV()
	want := "name,\"a,b\",c\n\"r,1\",1.5,2\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

// TestCSVPrecision pins the deliberate divergence between the console
// rendering (formatVal: rounded for readability) and the CSV export
// (%g: full float64 precision). If either side changes format, this
// test localizes which one.
func TestCSVPrecision(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow("frac", 0.123456789) // console rounds to 3 decimals
	tb.AddRow("big", 1234567.0)    // console switches to %.3g
	tb.AddRow("mid", 123.456)      // console drops the fraction
	tb.AddRow("exact", 0.5)        // identical both ways
	wantCSV := "name,v\nfrac,0.123456789\nbig,1.234567e+06\nmid,123.456\nexact,0.5\n"
	if got := tb.CSV(); got != wantCSV {
		t.Fatalf("CSV = %q, want %q", got, wantCSV)
	}
	for _, c := range []struct {
		v    float64
		want string
	}{
		{0.123456789, "0.123"},
		{1234567.0, "1.23e+06"},
		{123.456, "123"},
		{0.5, "0.500"},
	} {
		if got := formatVal(c.v); got != c.want {
			t.Errorf("formatVal(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestSimRate(t *testing.T) {
	var r SimRate
	if r.CyclesPerSecond() != 0 {
		t.Fatal("empty SimRate should report 0 cycles/s")
	}
	r.Observe(1_000_000, 500*time.Millisecond)
	r.Observe(1_000_000, 500*time.Millisecond)
	cells, cycles, wall := r.Snapshot()
	if cells != 2 || cycles != 2_000_000 || wall != time.Second {
		t.Fatalf("snapshot = %d cells, %d cycles, %v wall", cells, cycles, wall)
	}
	if got := r.CyclesPerSecond(); math.Abs(got-2_000_000) > 1e-6 {
		t.Fatalf("CyclesPerSecond = %v, want 2e6", got)
	}
}

func TestSimRateConcurrent(t *testing.T) {
	var r SimRate
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Observe(10, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	cells, cycles, wall := r.Snapshot()
	if cells != 800 || cycles != 8000 || wall != 800*time.Microsecond {
		t.Fatalf("snapshot = %d cells, %d cycles, %v wall", cells, cycles, wall)
	}
}
