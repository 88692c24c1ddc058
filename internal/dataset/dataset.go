// Package dataset generates the synthetic stand-ins for the paper's
// experimental datasets (see DESIGN.md §4 for the substitution rationale):
//
//   - Temperature: a dense, smooth 4-d cube (latitude, longitude, altitude,
//     time) modeled on the JPL TEMPERATURE dataset — latitudinal gradient,
//     altitude lapse rate, diurnal and seasonal harmonics, low-frequency
//     spatial structure, and measurement noise;
//   - Precipitation: a sparse 3-d cube (latitude, longitude, day) modeled on
//     the Pacific Northwest PRECIPITATION dataset — localized storm clusters
//     decaying in space and time over a mostly dry field;
//   - generic dense, sparse, and random-walk generators for micro-workloads.
//
// All generators are deterministic functions of their seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/shiftsplit/shiftsplit/internal/ndarray"
)

// Temperature synthesizes a 4-d temperature cube with the given shape
// (lat, lon, alt, time). Values are in degrees Celsius.
func Temperature(shape []int, seed int64) *ndarray.Array {
	if len(shape) != 4 {
		panic(fmt.Sprintf("dataset: Temperature needs 4 dims, got %v", shape))
	}
	rng := rand.New(rand.NewSource(seed))
	a := ndarray.New(shape...)
	nLat, nLon, nAlt, nT := shape[0], shape[1], shape[2], shape[3]
	// A handful of low-frequency spatial harmonics shared by all time steps.
	const nHarmonics = 4
	type harmonic struct{ fLat, fLon, phase, amp float64 }
	hs := make([]harmonic, nHarmonics)
	for i := range hs {
		hs[i] = harmonic{
			fLat:  1 + rng.Float64()*3,
			fLon:  1 + rng.Float64()*3,
			phase: rng.Float64() * 2 * math.Pi,
			amp:   2 + rng.Float64()*3,
		}
	}
	a.Each(func(c []int, _ float64) {
		lat := float64(c[0]) / float64(nLat) // 0 = equator, 1 = pole
		lon := float64(c[1]) / float64(nLon)
		alt := float64(c[2]) / float64(nAlt)
		tm := float64(c[3])
		v := 30 - 45*lat                                       // equator-to-pole gradient
		v -= 40 * alt                                          // lapse rate across the altitude range
		v += 8 * math.Sin(2*math.Pi*tm/float64(maxInt(nT, 2))) // seasonal cycle
		v += 3 * math.Sin(2*math.Pi*tm/2)                      // diurnal (2 samples/day)
		for _, h := range hs {
			v += h.amp * math.Sin(2*math.Pi*(h.fLat*lat+h.fLon*lon)+h.phase)
		}
		v += rng.NormFloat64() * 0.5 // sensor noise
		a.Set(v, c...)
	})
	return a
}

// Precipitation synthesizes a sparse 3-d precipitation cube with the given
// shape (lat, lon, day). Values are daily millimeters; most cells are zero.
func Precipitation(shape []int, seed int64) *ndarray.Array {
	if len(shape) != 3 {
		panic(fmt.Sprintf("dataset: Precipitation needs 3 dims, got %v", shape))
	}
	rng := rand.New(rand.NewSource(seed))
	a := ndarray.New(shape...)
	nLat, nLon, nT := shape[0], shape[1], shape[2]
	// One storm every ~6 days on average, each a space-time Gaussian bump.
	nStorms := maxInt(1, nT/6)
	for s := 0; s < nStorms; s++ {
		cLat := rng.Float64() * float64(nLat)
		cLon := rng.Float64() * float64(nLon)
		cT := rng.Float64() * float64(nT)
		sigmaS := 0.7 + rng.Float64()*float64(maxInt(nLat, nLon))/6
		sigmaT := 0.5 + rng.Float64()*1.5
		peak := 5 + rng.ExpFloat64()*20
		lo := maxInt(0, int(cT-3*sigmaT))
		hi := minInt(nT-1, int(cT+3*sigmaT))
		for tm := lo; tm <= hi; tm++ {
			dt := (float64(tm) - cT) / sigmaT
			for la := 0; la < nLat; la++ {
				for lo2 := 0; lo2 < nLon; lo2++ {
					dla := (float64(la) - cLat) / sigmaS
					dlo := (float64(lo2) - cLon) / sigmaS
					v := peak * math.Exp(-(dla*dla+dlo*dlo+dt*dt)/2)
					if v > 0.5 {
						a.Add(v, la, lo2, tm)
					}
				}
			}
		}
	}
	return a
}

// Dense fills an array of the given shape with smooth correlated values
// plus noise — a generic stand-in for any dense measurement cube: a cell
// is the sum over dimensions of one sine wave of its coordinate along
// each, plus Gaussian noise. A dimension's wave depends on its own
// coordinate alone, so it is evaluated once per coordinate; each cell sums
// the waves in dimension order and draws its noise in row-major order,
// the same floats a per-cell evaluation gives.
func Dense(shape []int, seed int64) *ndarray.Array {
	rng := rand.New(rand.NewSource(seed))
	a := ndarray.New(shape...)
	d := len(shape)
	waves := make([][]float64, d)
	for i, s := range shape {
		freq := 1 + rng.Float64()*2
		phase := rng.Float64() * 2 * math.Pi
		waves[i] = make([]float64, s)
		for c := range waves[i] {
			waves[i][c] = math.Sin(2*math.Pi*freq*float64(c)/float64(s) + phase)
		}
	}
	data := a.Data()
	if d == 0 {
		data[0] = rng.NormFloat64() * 0.2
		return a
	}
	// Row by row: the waves of every dimension but the last sum once per
	// row, in the order the per-cell sum adds them.
	row, last := make([]int, d-1), waves[d-1]
	for off := 0; off < len(data); off += len(last) {
		v := 0.0
		for i, c := range row {
			v += waves[i][c]
		}
		for x, w := range last {
			data[off+x] = v + w + rng.NormFloat64()*0.2
		}
		for i := d - 2; i >= 0; i-- {
			if row[i]++; row[i] < shape[i] {
				break
			}
			row[i] = 0
		}
	}
	return a
}

// Sparse fills an array in which roughly density*size cells hold
// exponential-tailed values and the rest are zero.
func Sparse(shape []int, density float64, seed int64) *ndarray.Array {
	if density < 0 || density > 1 {
		panic(fmt.Sprintf("dataset: density %g out of [0,1]", density))
	}
	rng := rand.New(rand.NewSource(seed))
	a := ndarray.New(shape...)
	data := a.Data()
	for i := range data {
		if rng.Float64() < density {
			data[i] = rng.ExpFloat64() * 10
		}
	}
	return a
}

// RandomWalk returns a length-n random-walk series, the stream workload of
// §6.3's synopsis maintenance experiment.
func RandomWalk(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	v := 0.0
	for i := range out {
		v += rng.NormFloat64()
		out[i] = v
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
