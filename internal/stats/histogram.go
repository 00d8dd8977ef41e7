package stats

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrBadBounds is returned when histogram bounds are invalid.
var ErrBadBounds = errors.New("stats: invalid histogram bounds")

// Histogram is a fixed-bin-width 1-D histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []uint64

	width    float64
	under    uint64
	over     uint64
	nonEmpty bool
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if !(lo < hi) || bins <= 0 {
		return nil, ErrBadBounds
	}
	return &Histogram{
		Lo:     lo,
		Hi:     hi,
		Counts: make([]uint64, bins),
		width:  (hi - lo) / float64(bins),
	}, nil
}

// Add records one observation. Values outside [Lo, Hi) are tallied in
// underflow/overflow counters rather than dropped silently.
func (h *Histogram) Add(x float64) {
	h.AddN(x, 1)
}

// AddN records n observations of the same value.
func (h *Histogram) AddN(x float64, n uint64) {
	h.nonEmpty = true
	switch {
	case x < h.Lo:
		h.under += n
	case x >= h.Hi:
		h.over += n
	default:
		i := int((x - h.Lo) / h.width)
		if i >= len(h.Counts) { // float rounding at the upper edge
			i = len(h.Counts) - 1
		}
		h.Counts[i] += n
	}
}

// Total returns the total number of observations, including out-of-range.
func (h *Histogram) Total() uint64 {
	var t uint64 = h.under + h.over
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinCenter returns the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.width
}

// String renders a compact ASCII bar chart, useful in CLI reproduction
// output.
func (h *Histogram) String() string {
	var mx uint64
	for _, c := range h.Counts {
		if c > mx {
			mx = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := 0
		if mx > 0 {
			bar = int(40 * float64(c) / float64(mx))
		}
		fmt.Fprintf(&b, "%8.2f | %-40s %d\n", h.BinCenter(i), strings.Repeat("#", bar), c)
	}
	return b.String()
}

// Grid2D is a dense 2-D accumulation grid used for position heatmaps
// (Fig. 3 of the paper: 28 cm x 28 cm cells, log-scale rendering).
type Grid2D struct {
	// MinX, MinY anchor the grid; CellSize is the square cell edge length
	// in the same units as the coordinates (meters in the habitat model).
	MinX, MinY float64
	CellSize   float64
	NX, NY     int
	Cells      []float64 // row-major: Cells[y*NX+x]
}

// NewGrid2D builds a grid covering [minX, minX+nx*cell) x [minY, minY+ny*cell).
func NewGrid2D(minX, minY, cell float64, nx, ny int) (*Grid2D, error) {
	if cell <= 0 || nx <= 0 || ny <= 0 {
		return nil, ErrBadBounds
	}
	return &Grid2D{
		MinX: minX, MinY: minY, CellSize: cell,
		NX: nx, NY: ny,
		Cells: make([]float64, nx*ny),
	}, nil
}

// Add accumulates weight w at position (x, y). Out-of-range positions are
// clamped to the border cells so that wall-adjacent samples are not lost.
func (g *Grid2D) Add(x, y, w float64) {
	cx := int((x - g.MinX) / g.CellSize)
	cy := int((y - g.MinY) / g.CellSize)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.NX {
		cx = g.NX - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.NY {
		cy = g.NY - 1
	}
	g.Cells[cy*g.NX+cx] += w
}

// At returns the accumulated weight of cell (cx, cy), or 0 if out of range.
func (g *Grid2D) At(cx, cy int) float64 {
	if cx < 0 || cx >= g.NX || cy < 0 || cy >= g.NY {
		return 0
	}
	return g.Cells[cy*g.NX+cx]
}

// Total returns the sum over all cells.
func (g *Grid2D) Total() float64 {
	var t float64
	for _, c := range g.Cells {
		t += c
	}
	return t
}

// LogScaled returns a copy of the grid with cells mapped through
// log10(1 + v), the paper's heatmap scale.
func (g *Grid2D) LogScaled() *Grid2D {
	out := &Grid2D{
		MinX: g.MinX, MinY: g.MinY, CellSize: g.CellSize,
		NX: g.NX, NY: g.NY,
		Cells: make([]float64, len(g.Cells)),
	}
	for i, c := range g.Cells {
		out.Cells[i] = math.Log10(1 + c)
	}
	return out
}

// Render draws the grid as ASCII art with a 10-level ramp, darkest for the
// highest cells. Rows are emitted top (max y) to bottom.
func (g *Grid2D) Render() string {
	const ramp = " .:-=+*#%@"
	var mx float64
	for _, c := range g.Cells {
		if c > mx {
			mx = c
		}
	}
	var b strings.Builder
	for cy := g.NY - 1; cy >= 0; cy-- {
		for cx := 0; cx < g.NX; cx++ {
			v := g.Cells[cy*g.NX+cx]
			level := 0
			if mx > 0 {
				level = int(float64(len(ramp)-1) * v / mx)
			}
			b.WriteByte(ramp[level])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
