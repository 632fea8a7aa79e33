package ftclust

import (
	"context"
	"errors"
	"testing"
)

// Input validation must return the documented sentinels, matchable with
// errors.Is, for every solver entry point.
func TestSolverInputValidation(t *testing.T) {
	g, err := GenerateGraph("gnp", 10, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := NewGraph(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	costs := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	pts := UniformDeployment(10, 3, 1)

	cases := []struct {
		name string
		err  error
		want error
	}{
		{"kmds k=0", func() error { _, err := SolveKMDS(g, 0); return err }(), ErrBadK},
		{"kmds k<0", func() error { _, err := SolveKMDS(g, -3); return err }(), ErrBadK},
		{"kmds k>n", func() error { _, err := SolveKMDS(g, 11); return err }(), ErrBadK},
		{"kmds nil graph", func() error { _, err := SolveKMDS(nil, 2); return err }(), ErrEmptyGraph},
		{"kmds empty graph", func() error { _, err := SolveKMDS(empty, 2); return err }(), ErrEmptyGraph},
		{"weighted k=0", func() error { _, err := SolveWeightedKMDS(g, 0, costs); return err }(), ErrBadK},
		{"weighted k>n", func() error { _, err := SolveWeightedKMDS(g, 11, costs); return err }(), ErrBadK},
		{"weighted nil graph", func() error { _, err := SolveWeightedKMDS(nil, 2, nil); return err }(), ErrEmptyGraph},
		{"weighted empty graph", func() error { _, err := SolveWeightedKMDS(empty, 2, nil); return err }(), ErrEmptyGraph},
		{"udg k=0", func() error { _, _, err := SolveUDGKMDS(pts, 0); return err }(), ErrBadK},
		{"udg k>n", func() error { _, _, err := SolveUDGKMDS(pts, 11); return err }(), ErrBadK},
		{"udg nil deployment", func() error { _, _, err := SolveUDGKMDS(nil, 2); return err }(), ErrEmptyGraph},
	}
	for _, tc := range cases {
		if !errors.Is(tc.err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, tc.err, tc.want)
		}
	}

	// Valid boundary: k = n must still solve (demands are capped).
	if _, err := SolveKMDS(g, 10); err != nil {
		t.Errorf("k = n should be accepted: %v", err)
	}
}

// A negative node count is an input error, not a panic.
func TestNewGraphNegativeNodeCount(t *testing.T) {
	if g, err := NewGraph(-1, nil); err == nil {
		t.Fatalf("NewGraph(-1, nil) = %v, want an error", g)
	}
}

// WithContext with an immediately-canceled context must abort with
// ErrCanceled for both general-graph pipelines.
func TestWithContextCanceled(t *testing.T) {
	g, err := GenerateGraph("gnp", 100, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveKMDS(g, 3, WithContext(ctx)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("SolveKMDS: got %v, want ErrCanceled", err)
	}
	costs := make([]float64, g.NumNodes())
	for i := range costs {
		costs[i] = 1
	}
	if _, err := SolveWeightedKMDS(g, 2, costs, WithContext(ctx)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("SolveWeightedKMDS: got %v, want ErrCanceled", err)
	}
	// A live context must not change behavior.
	if _, err := SolveKMDS(g, 3, WithContext(context.Background())); err != nil {
		t.Fatalf("live context: %v", err)
	}
}
