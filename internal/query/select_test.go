package query

import (
	"math/rand"
	"path"
	"slices"
	"strconv"
	"testing"

	"repro/internal/store"
)

// labelIndex is an Index over bare labels.
type labelIndex struct {
	labels []int
	byName map[int]int
}

func newLabelIndex(labels []int) *labelIndex {
	ix := &labelIndex{labels: labels, byName: make(map[int]int, len(labels))}
	for i, l := range labels {
		ix.byName[l] = i
	}
	return ix
}

func (ix *labelIndex) Len() int                      { return len(ix.labels) }
func (ix *labelIndex) Info(i int) store.FrameInfo    { return store.FrameInfo{Label: ix.labels[i]} }
func (ix *labelIndex) IndexOf(label int) (int, bool) { i, ok := ix.byName[label]; return i, ok }

// scanSelect is selectFrames as it was: every frame's label spelled out
// and glob-matched. The lookup for literal labels must agree with it on
// frames, order and error text.
func scanSelect(src Index, sel Selector) ([]int, error) {
	if sel.Labels != "" {
		if _, err := path.Match(sel.Labels, "0"); err != nil {
			return nil, badf("bad label glob %q", sel.Labels)
		}
	}
	from, to := 0, src.Len()
	if sel.From != nil {
		from = max(*sel.From, 0)
	}
	if sel.To != nil {
		to = min(*sel.To, src.Len())
	}
	var frames []int
	for i := from; i < to; i++ {
		if sel.Labels != "" {
			ok, _ := path.Match(sel.Labels, strconv.Itoa(src.Info(i).Label))
			if !ok {
				continue
			}
		}
		frames = append(frames, i)
	}
	if len(frames) == 0 {
		return nil, badf("selection (labels %q, range [%d, %d)) matches no frames", sel.Labels, from, to)
	}
	return frames, nil
}

func TestSelectFramesMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		seen := map[int]bool{}
		var labels []int
		for len(labels) < n {
			l := rng.Intn(120) - 40 // negative labels too
			if !seen[l] {
				seen[l] = true
				labels = append(labels, l)
			}
		}
		ix := newLabelIndex(labels)
		present, absent := labels[rng.Intn(n)], 1000+rng.Intn(10)
		globs := []string{
			"", strconv.Itoa(present), strconv.Itoa(absent), "-" + strconv.Itoa(rng.Intn(40)),
			"0", "-0", "+5", "007", "0" + strconv.Itoa(present), " 1", "1 ", "1e1", "0x1",
			"*", "1*", "?", "-?", "[0-9]", "[", `\1`, `1\`, "99999999999999999999",
		}
		for _, glob := range globs {
			for _, bounds := range [][2]int{{-1, -1}, {0, n}, {rng.Intn(n + 1), rng.Intn(n + 2)}, {-3, n + 5}} {
				sel := Selector{Labels: glob}
				if bounds[0] != -1 || bounds[1] != -1 {
					from, to := bounds[0], bounds[1]
					sel.From, sel.To = &from, &to
				}
				got, gotErr := selectFrames(ix, sel)
				want, wantErr := scanSelect(ix, sel)
				if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Fatalf("labels %v glob %q bounds %v: error %v, scan %v", labels, glob, bounds, gotErr, wantErr)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("labels %v glob %q bounds %v: frames %v, scan %v", labels, glob, bounds, got, want)
				}
			}
		}
	}
}

// A single-label read must not cost a string per stored frame.
func TestLiteralSelectionDoesNotScan(t *testing.T) {
	labels := make([]int, 5000)
	for i := range labels {
		labels[i] = 3*i - 700
	}
	ix := newLabelIndex(labels)
	sel := Selector{Labels: strconv.Itoa(labels[4321])}
	allocs := testing.AllocsPerRun(20, func() {
		frames, err := selectFrames(ix, sel)
		if err != nil || len(frames) != 1 || frames[0] != 4321 {
			t.Fatalf("selectFrames = %v, %v", frames, err)
		}
	})
	if allocs > 2 {
		t.Errorf("literal selection over 5000 frames allocates %v objects, want ≤ 2", allocs)
	}
}
