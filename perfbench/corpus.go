package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"specabsint/internal/bench"
	"specabsint/internal/gen"
)

// program is one analysis input with the answers the paper fixes for it.
type program struct {
	Name string
	Src  string
	// Fig2 marks the paper's Fig. 2 example: at the paper geometry it must
	// report 514 #Miss, 3 #SpMiss and exactly one leak, at ph[k].
	Fig2 bool
	// WantLeak, when set, is Table 7's leak / no-leak verdict.
	WantLeak *bool
}

// table7Bytes is the client input-buffer size at which Table 7 reports each
// crypto kernel; kernels not listed use the full 32 KiB.
var table7Bytes = map[string]int{
	"hash": 31424, "encoder": 31424, "chacha20": 31424,
	"ocb": 30528, "des": 0,
}

// table7Leaks is Table 7's speculative-analysis verdict.
var table7Leaks = map[string]bool{
	"hash": true, "encoder": true, "chacha20": true, "ocb": true, "des": true,
	"aes": false, "str2key": false, "seed": false, "camellia": false, "salsa": false,
}

func fig2() program {
	return program{Name: "fig2", Src: bench.Fig2Program(-1), Fig2: true}
}

// wcetPrograms is the ten WCET kernels plus Fig. 2.
func wcetPrograms() []program {
	var out []program
	for _, b := range bench.WCETBenchmarks() {
		out = append(out, program{Name: b.Name, Src: b.Code})
	}
	return append(out, fig2())
}

// clientBytes rounds a buffer size up to whole 64-byte cache lines, the
// granularity Table 7's sweep probes at.
func clientBytes(n int) int { return (n + 63) / 64 * 64 }

// cryptoPrograms wraps the ten crypto kernels in the Fig. 10 client at
// Table 7's buffer sizes, plus Fig. 2.
func cryptoPrograms() []program {
	var out []program
	for _, b := range bench.CryptoBenchmarks() {
		size, ok := table7Bytes[b.Name]
		if !ok {
			size = 32768
		}
		leak := table7Leaks[b.Name]
		out = append(out, program{
			Name:     b.Name,
			Src:      bench.WithClient(b, clientBytes(size)),
			WantLeak: &leak,
		})
	}
	return append(out, fig2())
}

// serveCorpus is the repeat class of serve-mixed: the small and mid-size
// programs a CI fleet resubmits. The crypto kernels ride a 4 KiB client;
// the heavy WCET kernels (adpcm, susan, g72, stc) belong to wcet-dense.
func serveCorpus() []program {
	keep := map[string]bool{"vga": true, "gtk": true, "jdmarker": true, "layer3": true, "jcmarker": true, "jcphuff": true}
	var out []program
	for _, b := range bench.WCETBenchmarks() {
		if keep[b.Name] {
			out = append(out, program{Name: b.Name, Src: b.Code})
		}
	}
	for _, b := range bench.CryptoBenchmarks() {
		out = append(out, program{Name: b.Name + "@4k", Src: bench.WithClient(b, 4096)})
	}
	return append(out, fig2())
}

// smokeSlice keeps the named programs, for the short self-test mode.
func smokeSlice(progs []program, names ...string) []program {
	var out []program
	for _, p := range progs {
		for _, n := range names {
			if p.Name == n {
				out = append(out, p)
			}
		}
	}
	return out
}

// shuffled returns progs in a seed-determined order: the program set is
// fixed, the seed only decides the visiting order.
func shuffled(progs []program, seed int64) []program {
	out := append([]program(nil), progs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// editSite matches an integer literal on the right of `=`, `+` or `^`: a
// data constant, as opposed to an array size, an index or a loop bound.
var editSite = regexp.MustCompile(`[=+^] (\d+)\b`)

// editSites lists the byte offsets of the editable literals of src: those
// on plain statement lines, outside brackets, declarations and loop
// headers.
func editSites(src string) [][2]int {
	var sites [][2]int
	off := 0
	for _, line := range strings.SplitAfter(src, "\n") {
		t := strings.TrimSpace(line)
		skip := strings.HasPrefix(t, "for") || strings.HasPrefix(t, "int ") ||
			strings.HasPrefix(t, "char ") || strings.HasPrefix(t, "long ") ||
			strings.HasPrefix(t, "reg ") || strings.HasPrefix(t, "secret ") ||
			strings.HasPrefix(t, "/*") || strings.HasPrefix(t, "*") ||
			strings.HasPrefix(t, "if") || strings.HasPrefix(t, "while") ||
			strings.Contains(t, "[")
		if !skip {
			for _, m := range editSite.FindAllStringSubmatchIndex(line, -1) {
				sites = append(sites, [2]int{off + m[2], off + m[3]})
			}
		}
		off += len(line)
	}
	return sites
}

// editConstant changes one data constant of src to a seed-chosen value: the
// "one-line fix" resubmission that misses the report cache today.
func editConstant(src string, rng *rand.Rand) (string, error) {
	sites := editSites(src)
	if len(sites) == 0 {
		return "", fmt.Errorf("no editable constant")
	}
	s := sites[rng.Intn(len(sites))]
	old, _ := strconv.Atoi(src[s[0]:s[1]])
	val := old + 1 + rng.Intn(1<<16)
	return src[:s[0]] + strconv.Itoa(val) + src[s[1]:], nil
}

// Request classes of serve-mixed.
const (
	classRepeat = iota
	classEdit
	classFresh
	classVariant
	numClasses
)

var classNames = [numClasses]string{"repeat", "edit", "fresh", "variant"}

// The request mix, fixed per block of blockLen consecutive requests: 17
// repeats of known programs, 3 one-constant edits, 3 never-seen programs
// and 2 variants (a known program under a different speculation window).
//
// Where the shares come from: no traffic log exists to derive them from.
// The repeat share, 68%, is the report-cache hit share measured by the one
// probe of a mixed repeat/fresh stream on record (the probe quoted in the
// README). The split of the remaining 32% is an assumption: edits and
// fresh programs equally common, and option variants, which a caller sends
// when it sweeps a setting rather than resubmits work, the rarest.
//
// Within a block the seed shuffles the order; across blocks the repeats,
// edits and variants cycle through their programs in a seed-shuffled
// order, so every seed sends the same composition and only the order, the
// edit sites and values, the windows and the fresh programs differ.
const (
	blockLen     = 25
	blockRepeat  = 17
	blockEdit    = 3
	blockFresh   = 3
	blockVariant = blockLen - blockRepeat - blockEdit - blockFresh
)

// Variant windows: the speculation window after a possibly missing branch
// condition (b_m) is drawn around the paper's 200 instructions. With 101
// windows per program, a variant seldom repeats within the report cache's
// reach: it misses that tier and finds its program compiled in the program
// tier.
const (
	variantMinDepth = 150
	variantDepths   = 101
)

// request is one generated serve-mixed request.
type request struct {
	Class  int
	Name   string
	Source string
	// Repeat indexes the corpus program for the repeat and variant classes.
	Repeat int
	// DepthMiss is a variant's speculation window; 0 keeps the default.
	DepthMiss int
}

// stream generates the serve-mixed requests of one seed.
type stream struct {
	seed     int64
	corpus   []program
	editable []program
	// repeatOrder, editOrder and variantOrder are the seed's cycles through
	// the corpus and the editable programs.
	repeatOrder, editOrder, variantOrder []int
}

func newStream(seed int64, corpus, editable []program) *stream {
	rng := rand.New(rand.NewSource(seed))
	return &stream{seed: seed, corpus: corpus, editable: editable,
		repeatOrder: rng.Perm(len(corpus)), editOrder: rng.Perm(len(editable)),
		variantOrder: rng.Perm(len(corpus))}
}

// request generates request i: a pure function of (seed, i), so the stream
// is reproducible however the closed loop's clients interleave.
func (s *stream) request(i int64) request {
	block, pos := i/blockLen, int(i%blockLen)
	slot := rand.New(rand.NewSource(s.seed*7919 + block)).Perm(blockLen)[pos]
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + i))
	// cycle picks the n-th entry of a seed-shuffled cycle over len(order)
	// programs.
	cycle := func(order []int, perBlock, slotInClass int) int {
		n := block*int64(perBlock) + int64(slotInClass)
		return order[int(n%int64(len(order)))]
	}
	switch {
	case slot < blockRepeat:
		k := cycle(s.repeatOrder, blockRepeat, slot)
		return request{Class: classRepeat, Name: s.corpus[k].Name, Source: s.corpus[k].Src, Repeat: k}
	case slot < blockRepeat+blockEdit:
		p := s.editable[cycle(s.editOrder, blockEdit, slot-blockRepeat)]
		src, err := editConstant(p.Src, rng)
		if err != nil {
			panic(fmt.Sprintf("%s: %v", p.Name, err)) // editable is filtered by editSites
		}
		return request{Class: classEdit, Name: p.Name + "~edit", Source: src, Repeat: -1}
	case slot < blockRepeat+blockEdit+blockFresh:
		cfg := gen.Default()
		if rng.Intn(2) == 0 {
			cfg = gen.Sized(2)
		}
		return request{Class: classFresh, Name: fmt.Sprintf("gen%d", i), Source: gen.Program(rng, cfg), Repeat: -1}
	default:
		k := cycle(s.variantOrder, blockVariant, slot-blockRepeat-blockEdit-blockFresh)
		depth := variantMinDepth + rng.Intn(variantDepths)
		return request{Class: classVariant, Name: fmt.Sprintf("%s~bm%d", s.corpus[k].Name, depth),
			Source: s.corpus[k].Src, Repeat: k, DepthMiss: depth}
	}
}

// editablePrograms keeps the corpus programs that have an edit site.
func editablePrograms(corpus []program) []program {
	var out []program
	for _, p := range corpus {
		if len(editSites(p.Src)) > 0 {
			out = append(out, p)
		}
	}
	return out
}
