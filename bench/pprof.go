package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the names CPU samples fold into: the internal/ packages the
// metrics are defined for, the Go runtime, and everything else.
var layers = []string{
	"sim", "nvme", "mem", "pcie", "hostmem", "gpu", "ssd", "spdk", "cam", "bam",
	"oskernel", "xfer", "kvcache", "gnn", "sortx", "gemmx", "harness", "metrics",
	"runtime", "other",
}

var layerSet = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// layerOf maps a fully qualified function name to its layer, or to "" for
// a standard-library function outside the runtime, whose time belongs to
// whoever called it.
func layerOf(fn string) string {
	const internal = "camsim/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if layerSet[pkg] {
			return pkg
		}
		return "other"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "camsim/") || strings.HasPrefix(fn, "main."):
		return "other"
	}
	return ""
}

// stackLayer folds one sample: the innermost frame decides, except that
// standard-library helpers (encoding/binary, math/bits, sort, ...) pass
// their time to the nearest caller that is not one. Frames run from the
// leaf outwards, inlined calls included.
func stackLayer(frames []string) string {
	for _, fn := range frames {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "other"
}

// foldProfile decodes a gzip-compressed pprof CPU profile and returns the
// number of samples stackLayer puts in each layer.
func foldProfile(gz []byte) (map[string]int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	var frames []string
	for _, s := range prof.samples {
		if len(s.values) == 0 {
			continue
		}
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				frames = append(frames, prof.name(fn))
			}
		}
		out[stackLayer(frames)] += int(s.values[0]) // value 0 is the sample count
	}
	return out, nil
}

// The decoder below reads the four message types of profile.proto that the
// fold needs (Profile, Sample, Location with Line, Function) and skips
// every other field.

type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofProfile struct {
	samples  []pprofSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

func (p *pprofProfile) name(fn uint64) string {
	idx := p.funcName[fn]
	if idx < 0 || int(idx) >= len(p.strings) {
		return ""
	}
	return p.strings[idx]
}

var errProto = errors.New("pprof: malformed protobuf")

// field is one decoded protobuf field: a varint or a length-delimited
// payload (fixed-width fields are skipped by next).
type field struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

func (r *protoReader) next() (f field, ok bool, err error) {
	if len(r.b) == 0 {
		return f, false, nil
	}
	key, err := r.varint()
	if err != nil {
		return f, false, err
	}
	f.num, f.wire = int(key>>3), int(key&7)
	switch f.wire {
	case 0:
		f.v, err = r.varint()
	case 1:
		err = r.skip(8)
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return f, false, errProto
			}
			f.b, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		err = r.skip(4)
	default:
		err = errProto
	}
	return f, err == nil, err
}

func (r *protoReader) skip(n int) error {
	if len(r.b) < n {
		return errProto
	}
	r.b = r.b[n:]
	return nil
}

// repeated appends a repeated scalar field's values, packed or not.
func repeated(dst []uint64, f field) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	r := protoReader{f.b}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	r := protoReader{raw}
	for {
		f, ok, err := r.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return p, nil
		}
		switch f.num {
		case 2: // Sample
			s, err := decodeSample(f.b)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			if err := p.decodeLocation(f.b); err != nil {
				return nil, err
			}
		case 5: // Function
			if err := p.decodeFunction(f.b); err != nil {
				return nil, err
			}
		case 6: // string_table
			p.strings = append(p.strings, string(f.b))
		}
	}
}

func decodeSample(b []byte) (s pprofSample, err error) {
	r := protoReader{b}
	for {
		f, ok, err := r.next()
		if err != nil || !ok {
			return s, err
		}
		switch f.num {
		case 1:
			if s.locs, err = repeated(s.locs, f); err != nil {
				return s, err
			}
		case 2:
			var vs []uint64
			if vs, err = repeated(nil, f); err != nil {
				return s, err
			}
			for _, v := range vs {
				s.values = append(s.values, int64(v))
			}
		}
	}
}

func (p *pprofProfile) decodeLocation(b []byte) error {
	var id uint64
	var funcs []uint64
	r := protoReader{b}
	for {
		f, ok, err := r.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch f.num {
		case 1:
			id = f.v
		case 4: // Line; the first one is the innermost inlined frame
			lr := protoReader{f.b}
			for {
				lf, ok, err := lr.next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				if lf.num == 1 {
					funcs = append(funcs, lf.v)
				}
			}
		}
	}
	p.locFuncs[id] = funcs
	return nil
}

func (p *pprofProfile) decodeFunction(b []byte) error {
	var id uint64
	var name int64
	r := protoReader{b}
	for {
		f, ok, err := r.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch f.num {
		case 1:
			id = f.v
		case 2:
			name = int64(f.v)
		}
	}
	p.funcName[id] = name
	return nil
}
