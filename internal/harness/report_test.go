package harness

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gstm/internal/stamp"
)

// tinySuite runs a 2-workload, 2-thread-count sweep at minimal scale.
func tinySuite(t *testing.T, force bool) SuiteResult {
	t.Helper()
	res, err := RunSuite(SuiteConfig{
		Threads:     []int{2, 3},
		Workloads:   []string{"kmeans", "ssca2"},
		ProfileRuns: 2,
		MeasureRuns: 2,
		ProfileSize: stamp.Small,
		MeasureSize: stamp.Small,
		Seed:        5,
		ForceAll:    force,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunSuiteShape(t *testing.T) {
	res := tinySuite(t, true)
	if len(res.Outcomes) != 2 {
		t.Fatalf("outcomes for %d workloads", len(res.Outcomes))
	}
	for _, name := range []string{"kmeans", "ssca2"} {
		for _, th := range []int{2, 3} {
			o, ok := res.Outcomes[name][th]
			if !ok {
				t.Fatalf("missing outcome %s@%d", name, th)
			}
			if o.Model == nil {
				t.Errorf("%s@%d: no model", name, th)
			}
			if o.Compared == nil {
				t.Errorf("%s@%d: ForceAll but no comparison", name, th)
			}
		}
	}
}

func TestRunSuiteUnknownWorkload(t *testing.T) {
	_, err := RunSuite(SuiteConfig{
		Threads: []int{2}, Workloads: []string{"nope"},
		ProfileRuns: 1, MeasureRuns: 1,
		ProfileSize: stamp.Small, MeasureSize: stamp.Small,
	}, nil)
	if err == nil {
		t.Fatal("unknown workload must fail the suite")
	}
}

func TestRendersContainExpectedHeaders(t *testing.T) {
	res := tinySuite(t, true)
	var b strings.Builder

	res.RenderTableI(&b)
	if !strings.Contains(b.String(), "TABLE I") || !strings.Contains(b.String(), "kmeans") {
		t.Errorf("Table I output: %q", b.String())
	}

	b.Reset()
	res.RenderTableII(&b)
	if !strings.Contains(b.String(), "TABLE II") || !strings.Contains(b.String(), "GOMAXPROCS") {
		t.Errorf("Table II output: %q", b.String())
	}
	// The default YieldEvery yields only when the threads oversubscribe
	// GOMAXPROCS; the table reports the regime each sweep ran in.
	for _, th := range []int{2, 3} {
		want := fmt.Sprintf("%d threads: %s", th, onOff(th > runtime.GOMAXPROCS(0)))
		if !strings.Contains(b.String(), want) {
			t.Errorf("Table II output lacks %q: %q", want, b.String())
		}
	}

	b.Reset()
	res.RenderTableIII(&b)
	if !strings.Contains(b.String(), "TABLE III") || !strings.Contains(b.String(), "model bytes") {
		t.Errorf("Table III output: %q", b.String())
	}

	b.Reset()
	res.RenderTableIV(&b)
	if !strings.Contains(b.String(), "TABLE IV") {
		t.Errorf("Table IV output: %q", b.String())
	}

	b.Reset()
	res.RenderVarianceFigure(&b, 2, "4")
	if !strings.Contains(b.String(), "FIGURE 4") || !strings.Contains(b.String(), "t0:") {
		t.Errorf("Figure 4 output: %q", b.String())
	}

	b.Reset()
	res.RenderAbortTailFigure(&b, 2, "5")
	if !strings.Contains(b.String(), "FIGURE 5") || !strings.Contains(b.String(), "default:") {
		t.Errorf("Figure 5 output: %q", b.String())
	}

	b.Reset()
	res.RenderFigure8(&b)
	if !strings.Contains(b.String(), "FIGURE 8") || !strings.Contains(b.String(), "ssca2") &&
		!strings.Contains(b.String(), "SSCA2") {
		t.Errorf("Figure 8 output: %q", b.String())
	}

	b.Reset()
	res.RenderFigure9(&b)
	if !strings.Contains(b.String(), "FIGURE 9") {
		t.Errorf("Figure 9 output: %q", b.String())
	}

	b.Reset()
	res.RenderFigure10(&b)
	if !strings.Contains(b.String(), "FIGURE 10") || !strings.Contains(b.String(), "x") {
		t.Errorf("Figure 10 output: %q", b.String())
	}
}

func TestRendersHandleUnfitWithoutForce(t *testing.T) {
	// Without Force, small models are often unfit — renderers must not
	// panic and must say so.
	res := tinySuite(t, false)
	var b strings.Builder
	res.RenderTableIV(&b)
	res.RenderVarianceFigure(&b, 2, "4")
	res.RenderAbortTailFigure(&b, 2, "5")
	res.RenderFigure8(&b)
	res.RenderFigure9(&b)
	res.RenderFigure10(&b)
	if b.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestRunSuiteLogs(t *testing.T) {
	var lines []string
	_, err := RunSuite(SuiteConfig{
		Threads: []int{2}, Workloads: []string{"ssca2"},
		ProfileRuns: 1, MeasureRuns: 1,
		ProfileSize: stamp.Small, MeasureSize: stamp.Small,
	}, func(format string, args ...any) {
		lines = append(lines, format)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Error("no progress logged")
	}
}
