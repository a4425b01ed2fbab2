package gen

import (
	"math"
	"math/rand"

	"dbtf/internal/tensor"
)

// Dataset is a named tensor standing in for one of the paper's real-world
// datasets (Table III). The real datasets are not redistributable with
// this repository; each generator reproduces the corresponding family's
// shape statistics — mode sizes (scaled down), power-law occupancy, and
// block/temporal structure — so that the Figure 6 comparison exercises the
// same code paths.
type Dataset struct {
	// Name is the paper's dataset name.
	Name string
	// X is the generated stand-in tensor.
	X *tensor.Tensor
	// Modes describes the tensor's modes, e.g. "user × user × date".
	Modes string
}

// Datasets generates stand-ins for all six Table III datasets at the given
// scale factor (1.0 = the default bench scale, far below the paper's
// sizes; larger values grow every mode).
func Datasets(rng *rand.Rand, scale float64) []Dataset {
	out := make([]Dataset, len(standins))
	for n, s := range standins {
		out[n] = s.make(rng, scale)
	}
	return out
}

// standins are the six Table III stand-ins in Datasets' order, each under
// its command-line name.
var standins = []struct {
	key  string
	make func(*rand.Rand, float64) Dataset
}{
	{"facebook", Facebook},
	{"dblp", DBLP},
	{"ddos-s", func(rng *rand.Rand, scale float64) Dataset { return DDoS(rng, scale, false) }},
	{"ddos-l", func(rng *rand.Rand, scale float64) Dataset { return DDoS(rng, scale, true) }},
	{"nell-s", func(rng *rand.Rand, scale float64) Dataset { return NELL(rng, scale, false) }},
	{"nell-l", func(rng *rand.Rand, scale float64) Dataset { return NELL(rng, scale, true) }},
}

// Standin generates the one stand-in named key — facebook, dblp, ddos-s,
// ddos-l, nell-s or nell-l — drawing from rng first, and reports whether
// there is one by that name.
func Standin(rng *rand.Rand, key string, scale float64) (Dataset, bool) {
	for _, s := range standins {
		if s.key == key {
			return s.make(rng, scale), true
		}
	}
	return Dataset{}, false
}

func scaled(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 4 {
		n = 4
	}
	return n
}

// powerLawIndex samples an index in [0, n) with probability ∝ (i+1)^−α,
// the heavy-tailed occupancy real relationship data exhibits.
func powerLawIndex(rng *rand.Rand, n int, alpha float64) int {
	// Inverse-CDF sampling on the continuous approximation.
	u := rng.Float64()
	x := math.Pow(1-u*(1-math.Pow(float64(n), 1-alpha)), 1/(1-alpha))
	i := int(x) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Facebook generates a temporal friendship tensor (user × user × date):
// community blocks of users whose mutual links appear during contiguous
// activity windows, plus background links between power-law-popular users.
// Paper original: 64K × 64K × 870, 1.5M nonzeros.
func Facebook(rng *rand.Rand, scale float64) Dataset {
	users := scaled(512, scale)
	days := scaled(48, scale)
	var coords []tensor.Coord

	// Community blocks: groups of friends active in a shared window.
	numComms := users / 24
	for c := 0; c < numComms; c++ {
		size := 6 + rng.Intn(18)
		members := rng.Perm(users)[:size]
		start := rng.Intn(days)
		span := 1 + rng.Intn(days/4+1)
		for _, u1 := range members {
			for _, u2 := range members {
				if u1 == u2 || rng.Float64() > 0.4 {
					continue
				}
				for d := start; d < start+span && d < days; d++ {
					if rng.Float64() < 0.5 {
						coords = append(coords, tensor.Coord{I: u1, J: u2, K: d})
					}
				}
			}
		}
	}
	// Background links between popular users.
	background := users * days / 4
	for n := 0; n < background; n++ {
		coords = append(coords, tensor.Coord{
			I: powerLawIndex(rng, users, 1.5),
			J: powerLawIndex(rng, users, 1.5),
			K: rng.Intn(days),
		})
	}
	return Dataset{
		Name:  "Facebook",
		X:     tensor.MustFromCoords(users, users, days, coords),
		Modes: "user × user × date",
	}
}

// DBLP generates a bibliographic tensor (author × conference × year):
// authors publish repeatedly at a few venues over contiguous career
// spans; venue popularity is heavy-tailed.
// Paper original: 418K × 3.5K × 49, 1.3M nonzeros.
func DBLP(rng *rand.Rand, scale float64) Dataset {
	authors := scaled(1024, scale)
	venues := scaled(48, scale)
	years := scaled(24, scale)
	var coords []tensor.Coord
	for a := 0; a < authors; a++ {
		nv := 1 + rng.Intn(3)
		start := rng.Intn(years)
		span := 2 + rng.Intn(years/2+1)
		for v := 0; v < nv; v++ {
			venue := powerLawIndex(rng, venues, 1.3)
			for y := start; y < start+span && y < years; y++ {
				if rng.Float64() < 0.5 {
					coords = append(coords, tensor.Coord{I: a, J: venue, K: y})
				}
			}
		}
	}
	return Dataset{
		Name:  "DBLP",
		X:     tensor.MustFromCoords(authors, venues, years, coords),
		Modes: "author × conference × year",
	}
}

// DDoS generates a network attack-trace tensor (source IP × destination
// IP × time): a handful of victim destinations receive bursts from very
// many sources inside short windows (dense slabs), over sparse background
// traffic. Paper originals: CAIDA-DDoS-S 9K × 9K × 4K (22M nonzeros) and
// CAIDA-DDoS-L 9K × 9K × 393K (331M).
func DDoS(rng *rand.Rand, scale float64, large bool) Dataset {
	name := "CAIDA-DDoS-S"
	srcs, dsts, ticks := scaled(256, scale), scaled(256, scale), scaled(64, scale)
	victims, burst := 3, 6
	if large {
		name = "CAIDA-DDoS-L"
		srcs, dsts, ticks = scaled(320, scale), scaled(320, scale), scaled(256, scale)
		victims, burst = 5, 10
	}
	var coords []tensor.Coord
	for v := 0; v < victims; v++ {
		dst := rng.Intn(dsts)
		start := rng.Intn(ticks)
		attackers := rng.Perm(srcs)[:srcs/2]
		for _, src := range attackers {
			for t := start; t < start+burst && t < ticks; t++ {
				if rng.Float64() < 0.7 {
					coords = append(coords, tensor.Coord{I: src, J: dst, K: t})
				}
			}
		}
	}
	background := srcs * ticks / 8
	for n := 0; n < background; n++ {
		coords = append(coords, tensor.Coord{
			I: rng.Intn(srcs), J: rng.Intn(dsts), K: rng.Intn(ticks),
		})
	}
	return Dataset{
		Name:  name,
		X:     tensor.MustFromCoords(srcs, dsts, ticks, coords),
		Modes: "source IP × destination IP × time",
	}
}

// NELL generates a knowledge-base tensor (subject × relation × object):
// every relation slice links a cluster of subject entities to a cluster of
// object entities, with heavy-tailed entity participation and background
// triples. Paper originals: NELL-S 15K × 15K × 29K (77M nonzeros) and
// NELL-L 112K × 112K × 213K (18M).
func NELL(rng *rand.Rand, scale float64, large bool) Dataset {
	name := "NELL-S"
	entities, relations := scaled(320, scale), scaled(48, scale)
	if large {
		name = "NELL-L"
		entities, relations = scaled(512, scale), scaled(96, scale)
	}
	var coords []tensor.Coord
	for r := 0; r < relations; r++ {
		subjSize := 4 + rng.Intn(entities/8)
		objSize := 4 + rng.Intn(entities/8)
		subjs := rng.Perm(entities)[:subjSize]
		objs := rng.Perm(entities)[:objSize]
		density := 0.05 + rng.Float64()*0.15
		for _, s := range subjs {
			for _, o := range objs {
				if rng.Float64() < density {
					coords = append(coords, tensor.Coord{I: s, J: r, K: o})
				}
			}
		}
	}
	background := entities * relations / 8
	for n := 0; n < background; n++ {
		coords = append(coords, tensor.Coord{
			I: powerLawIndex(rng, entities, 1.4),
			J: rng.Intn(relations),
			K: powerLawIndex(rng, entities, 1.4),
		})
	}
	return Dataset{
		Name:  name,
		X:     tensor.MustFromCoords(entities, relations, entities, coords),
		Modes: "subject × relation × object",
	}
}
