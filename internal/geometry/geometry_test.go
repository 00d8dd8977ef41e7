package geometry

import (
	"math"
	"testing"
	"testing/quick"

	"icares/internal/stats"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Cross(q); got != -7 {
		t.Errorf("Cross = %v", got)
	}
	if got := (Point{3, 4}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := (Point{0, 0}).Dist(Point{3, 4}); got != 5 {
		t.Errorf("Dist = %v", got)
	}
}

func TestLerp(t *testing.T) {
	a := Point{0, 0}
	b := Point{10, 20}
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != (Point{5, 10}) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestUnit(t *testing.T) {
	u := (Point{3, 4}).Unit()
	if math.Abs(u.Norm()-1) > 1e-12 {
		t.Errorf("Unit norm = %v", u.Norm())
	}
	if got := (Point{0, 0}).Unit(); got != (Point{0, 0}) {
		t.Errorf("Unit of zero = %v", got)
	}
}

func TestSegmentIntersects(t *testing.T) {
	tests := []struct {
		name string
		s, u Segment
		want bool
	}{
		{
			name: "crossing",
			s:    Segment{Point{0, 0}, Point{2, 2}},
			u:    Segment{Point{0, 2}, Point{2, 0}},
			want: true,
		},
		{
			name: "parallel apart",
			s:    Segment{Point{0, 0}, Point{1, 0}},
			u:    Segment{Point{0, 1}, Point{1, 1}},
			want: false,
		},
		{
			name: "endpoint touch",
			s:    Segment{Point{0, 0}, Point{1, 1}},
			u:    Segment{Point{1, 1}, Point{2, 0}},
			want: true,
		},
		{
			name: "collinear overlap",
			s:    Segment{Point{0, 0}, Point{2, 0}},
			u:    Segment{Point{1, 0}, Point{3, 0}},
			want: true,
		},
		{
			name: "collinear disjoint",
			s:    Segment{Point{0, 0}, Point{1, 0}},
			u:    Segment{Point{2, 0}, Point{3, 0}},
			want: false,
		},
		{
			name: "T junction",
			s:    Segment{Point{0, 0}, Point{2, 0}},
			u:    Segment{Point{1, 0}, Point{1, 2}},
			want: true,
		},
		{
			name: "near miss",
			s:    Segment{Point{0, 0}, Point{1, 0}},
			u:    Segment{Point{1.001, 0}, Point{2, 1}},
			want: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.s.Intersects(tt.u); got != tt.want {
				t.Errorf("Intersects = %v, want %v", got, tt.want)
			}
		})
	}
}

// Property: intersection is symmetric.
func TestQuickIntersectsSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		pt := func() Point { return Point{r.Range(-5, 5), r.Range(-5, 5)} }
		s := Segment{pt(), pt()}
		u := Segment{pt(), pt()}
		return s.Intersects(u) == u.Intersects(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Point{4, 3}, Point{1, 2}) // corners in any order
	if r.Min != (Point{1, 2}) || r.Max != (Point{4, 3}) {
		t.Fatalf("NewRect = %+v", r)
	}
	if !r.Contains(Point{2, 2.5}) {
		t.Error("interior not contained")
	}
	if !r.Contains(Point{1, 2}) {
		t.Error("corner not contained")
	}
	if r.Contains(Point{0, 0}) {
		t.Error("outside contained")
	}
	if got := r.Center(); got != (Point{2.5, 2.5}) {
		t.Errorf("Center = %v", got)
	}
	if got := r.Area(); got != 3 {
		t.Errorf("Area = %v", got)
	}
	if got := r.Width(); got != 3 {
		t.Errorf("Width = %v", got)
	}
	if got := r.Height(); got != 1 {
		t.Errorf("Height = %v", got)
	}
}

func TestRectClamp(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{10, 5})
	if got := r.Clamp(Point{-3, 7}); got != (Point{0, 5}) {
		t.Errorf("Clamp = %v", got)
	}
	if got := r.Clamp(Point{4, 4}); got != (Point{4, 4}) {
		t.Errorf("Clamp interior = %v", got)
	}
}

func TestRectInset(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{10, 10})
	in := r.Inset(2)
	if in.Min != (Point{2, 2}) || in.Max != (Point{8, 8}) {
		t.Errorf("Inset = %+v", in)
	}
	tiny := NewRect(Point{0, 0}, Point{1, 1}).Inset(5)
	if tiny.Min != tiny.Max {
		t.Errorf("over-inset should collapse to center: %+v", tiny)
	}
}

func TestRectEdges(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2, 1})
	edges := r.Edges()
	if len(edges) != 4 {
		t.Fatalf("edges = %d", len(edges))
	}
	var perim float64
	for _, e := range edges {
		perim += e.A.Dist(e.B)
	}
	if math.Abs(perim-6) > 1e-12 {
		t.Errorf("perimeter = %v, want 6", perim)
	}
}
