package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// promSample is one scrape of the server's /metrics: series name with
// its label block, exactly as exposed, to value.
type promSample map[string]float64

// parseProm reads Prometheus text exposition. Comment lines and lines
// it cannot parse are skipped: the harness reads only series it names.
func parseProm(r io.Reader) promSample {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label block;
		// label values may themselves contain spaces ("GET /metrics").
		cut := strings.LastIndexByte(line, ' ')
		if end := strings.LastIndexByte(line, '}'); end > cut {
			continue
		}
		if cut <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out
}

// delta returns after − before per series; a series absent before
// counts from zero (labelled series appear on first use).
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of the family name whose label block contains
// all of the given `key="value"` fragments.
func (s promSample) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		family, block := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			family, block = k[:i], k[i:]
		}
		if family != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(block, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// histMean is a histogram family's mean observation over the scraped
// interval (Δsum ÷ Δcount), 0 when nothing was observed.
func (s promSample) histMean(name string, labels ...string) float64 {
	n := s.sum(name+"_count", labels...)
	if n == 0 {
		return 0
	}
	return s.sum(name+"_sum", labels...) / n
}

// ratio is a ÷ (a + b), 0 when both are zero.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// per is a ÷ b, 0 when b is zero.
func per(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
