package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"github.com/shiftsplit/shiftsplit/internal/ndarray"
)

// This file is the request path of the hot routes (/v1/point, /v1/rangesum,
// /v1/ingest): a body read once into pooled scratch, fixed-schema decoders
// over it, and responses appended into one pooled buffer and sent with one
// Write. A decoder accepts only input it fully understands — the canonical
// keys, each once, strict JSON integers in int range, strict JSON numbers —
// and hands every other body to the strict encoding/json path (decode),
// replaying what it read under the same MaxBytesReader, so what is accepted,
// every error text, and when a connection closes are that path's alone.
//
// Numbers are decoded in one pass each: the scan that checks the grammar
// also gathers the digits into a uint64 mantissa and counts the fraction
// digits. An integer comes straight from them. A number without an exponent
// part, with at most 15 significant digits and at most 22 fraction digits,
// is one division of two exact float64s, correctly rounded and so bit for
// bit what strconv.ParseFloat returns; every other number goes to ParseFloat.

// fastBodyMax bounds the bodies the fast path reads whole up front: a
// declared length at most this, and at most MaxBodyBytes. It is net/http's
// maxPostHandlerReadBytes, the unread remainder a server still discards
// after a handler instead of closing the connection; below it, how much of
// the body the handler consumed cannot change whether the connection stays
// open, so reading it all before deciding how to decode is unobservable.
const fastBodyMax = 256 << 10

// Content types the appended responses assign without allocating.
var (
	jsonContentType   = []string{"application/json"}
	ndjsonContentType = []string{"application/x-ndjson"}
)

// scratch is one request's arena: its body, the decoded coordinates, slab
// shape, values and slabs, and the response being appended. It is taken
// from the pool on entry and put back when the handler returns; nothing in
// it outlives the request (slabs and their values are allocated apart, as
// the ingester keeps them). putScratch drops buffers that grew past what a
// fast body can need, 256 KiB each, so the pool holds no more.
type scratch struct {
	body   []byte
	start  []int // a point, or a box's start
	extent []int
	shape  []int     // the ingest line being decoded
	values []float64 // its values, before the copy its slab adopts
	slabs  []*ndarray.Array
	out    []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	if cap(sc.body) > fastBodyMax || cap(sc.out) > fastBodyMax || 8*cap(sc.values) > fastBodyMax {
		sc.body, sc.out, sc.values = nil, nil, nil
	}
	clear(sc.slabs)
	sc.slabs = sc.slabs[:0]
	scratchPool.Put(sc)
}

// readBody reads the request body whole into sc.body when the fast path may
// (see fastBodyMax) and reports whether it got all of it. When it reports
// false, decoding belongs to fallback.
func (s *Server) readBody(r *http.Request, sc *scratch) bool {
	sc.body = sc.body[:0]
	limit := min(s.cfg.MaxBodyBytes, fastBodyMax)
	if r.ContentLength < 0 || r.ContentLength > limit {
		return false
	}
	for int64(len(sc.body)) < limit {
		if len(sc.body) == cap(sc.body) {
			sc.body = slices.Grow(sc.body, int(min(limit, int64(2*cap(sc.body)+512)))-len(sc.body))
		}
		n, err := r.Body.Read(sc.body[len(sc.body):min(int64(cap(sc.body)), limit)])
		sc.body = sc.body[:len(sc.body)+n]
		if err == io.EOF {
			return true
		}
		if err != nil {
			r.Body = readFailed{r.Body, err}
			return false
		}
	}
	return false
}

// readFailed is a body whose read failed: the fallback decoder meets the
// same error where the fast path did.
type readFailed struct {
	io.ReadCloser
	err error
}

func (f readFailed) Read([]byte) (int, error) { return 0, f.err }

// fallback caps the body for the strict decoders, as the limited middleware
// does for every other route, after replaying whatever readBody took.
func (s *Server) fallback(w http.ResponseWriter, r *http.Request, sc *scratch) {
	var rest io.Reader = r.Body
	if len(sc.body) > 0 {
		rest = io.MultiReader(bytes.NewReader(sc.body), r.Body)
	}
	r.Body = http.MaxBytesReader(w, struct {
		io.Reader
		io.Closer
	}{rest, r.Body}, s.cfg.MaxBodyBytes)
}

// send writes an appended response with one Write.
func send(w http.ResponseWriter, contentType []string, b []byte) {
	w.Header()["Content-Type"] = contentType
	w.Write(b)
}

// finite reports a value JSON cannot represent as a store-side error, so
// the request fails with 500 instead of answering 200 with no body, which a
// client would read as success.
func finite(what string, v float64) error {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fmt.Errorf("server: %s %v has no JSON representation", what, v)
	}
	return nil
}

// wireScanner walks a request body. Each method skips JSON whitespace
// first and reports false, without guarantees about the position, on
// anything outside the shapes the fast path accepts.
type wireScanner struct {
	b []byte
	i int
}

func (p *wireScanner) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// done reports whether only whitespace is left.
func (p *wireScanner) done() bool {
	p.ws()
	return p.i == len(p.b)
}

func (p *wireScanner) lit(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// member reads `"key":` for the first key of keys not yet in seen, marking
// it, and returns its index; -1 for any other key (an unknown, repeated,
// case-variant or escaped one).
func (p *wireScanner) member(keys []string, seen *uint8) int {
	if !p.lit('"') {
		return -1
	}
	end := bytes.IndexByte(p.b[p.i:], '"')
	if end < 0 {
		return -1
	}
	name := p.b[p.i : p.i+end]
	p.i += end + 1
	for k, key := range keys {
		if string(name) == key && *seen&(1<<k) == 0 && p.lit(':') {
			*seen |= 1 << k
			return k
		}
	}
	return -1
}

// object reads an object whose members are exactly keys, each once, in any
// order, handing each member's index to value to read its value.
func (p *wireScanner) object(keys []string, value func(k int) bool) bool {
	if !p.lit('{') {
		return false
	}
	var seen uint8
	for k := range keys {
		if k > 0 && !p.lit(',') {
			return false
		}
		if m := p.member(keys, &seen); m < 0 || !value(m) {
			return false
		}
	}
	return p.lit('}')
}

// decimal is one strict JSON number as number scans it: its bytes, and its
// value as mant·10^-frac when it has no exponent part and at most 19
// significant digits.
type decimal struct {
	num  []byte
	mant uint64 // the significant digits, while nd <= 19
	nd   int    // significant digits: every digit from the first nonzero one
	frac int    // digits after the point
	neg  bool
	expo bool // an exponent part
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// number reads the next strict JSON number into d in one pass, checking
// the grammar and gathering the digits as it goes.
func (p *wireScanner) number(d *decimal) bool {
	p.ws()
	b, i := p.b, p.i
	*d = decimal{}
	if i < len(b) && b[i] == '-' {
		d.neg = true
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = d.digits(b, i)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		from := i + 1
		if i = d.digits(b, from); i == from {
			return false
		}
		d.frac = i - from
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		from := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		if i == from {
			return false
		}
		d.expo = true
	}
	d.num = b[p.i:i]
	p.i = i
	return true
}

// digits adds the digits of b from i on to d and returns where they end.
func (d *decimal) digits(b []byte, i int) int {
	mant, nd := d.mant, d.nd
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		if nd < 19 {
			mant = mant*10 + uint64(c)
		}
		if mant != 0 { // from the first nonzero digit on
			nd++
		}
	}
	d.mant, d.nd = mant, nd
	return i
}

// float returns what strconv.ParseFloat(d.num, 64) does, false where it
// errs. Without an exponent part, with at most 15 significant digits and at
// most 22 fraction digits, both operands of mant / 10^frac are exact
// float64s: the mantissa is below 10^15 < 2^53, and 10^22 = 5^22·2^22 with
// 5^22 < 2^53. One IEEE division then rounds the decimal value correctly,
// as ParseFloat does (Clinger's fast path), so the bits are the same. The
// rest goes to ParseFloat.
func (d *decimal) float() (float64, bool) {
	if !d.expo && d.nd <= 15 && d.frac < len(pow10) {
		f := float64(d.mant) / pow10[d.frac]
		if d.neg {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(d.num), 64)
	return f, err == nil
}

// int returns what strconv.ParseInt(d.num, 10, strconv.IntSize) does,
// false where it errs or d is not a JSON integer.
func (d *decimal) int() (int, bool) {
	limit := uint64(math.MaxInt)
	if d.neg {
		limit++
	}
	if d.expo || d.frac > 0 || d.nd > 19 || d.mant > limit {
		return 0, false
	}
	v := int(d.mant)
	if d.neg {
		v = -v // wraps to math.MinInt at the limit, as it should
	}
	return v, true
}

// ints appends a JSON array of integers within int range to dst.
func (p *wireScanner) ints(dst []int) ([]int, bool) {
	if !p.lit('[') {
		return dst, false
	}
	if p.lit(']') {
		return dst, true
	}
	var d decimal
	for {
		if !p.number(&d) {
			return dst, false
		}
		v, ok := d.int()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if p.lit(']') {
			return dst, true
		}
		if !p.lit(',') {
			return dst, false
		}
	}
}

// floats appends a JSON array of numbers to dst.
func (p *wireScanner) floats(dst []float64) ([]float64, bool) {
	if !p.lit('[') {
		return dst, false
	}
	if p.lit(']') {
		return dst, true
	}
	var d decimal
	for {
		if !p.number(&d) {
			return dst, false
		}
		v, ok := d.float()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if p.lit(']') {
			return dst, true
		}
		if !p.lit(',') {
			return dst, false
		}
	}
}

var (
	pointKeys = []string{"point"}
	rangeKeys = []string{"start", "extent"}
	slabKeys  = []string{"shape", "values"}
)

// decodePoint reads {"point":[...]} into sc.start.
func (sc *scratch) decodePoint() bool {
	p := wireScanner{b: sc.body}
	ok := p.object(pointKeys, func(int) bool {
		var ok bool
		sc.start, ok = p.ints(sc.start[:0])
		return ok
	})
	return ok && p.done()
}

// decodeRange reads {"start":[...],"extent":[...]} into sc.start and
// sc.extent.
func (sc *scratch) decodeRange() bool {
	p := wireScanner{b: sc.body}
	ok := p.object(rangeKeys, func(k int) bool {
		var ok bool
		if k == 0 {
			sc.start, ok = p.ints(sc.start[:0])
		} else {
			sc.extent, ok = p.ints(sc.extent[:0])
		}
		return ok
	})
	return ok && p.done()
}

// slabLine reads one ingest line {"shape":[...],"values":[...]}: its shape
// into sc.shape, its values through sc.values into an exactly sized copy a
// slab can adopt.
func (sc *scratch) slabLine(p *wireScanner) (values []float64, ok bool) {
	ok = p.object(slabKeys, func(k int) bool {
		var ok bool
		if k == 0 {
			sc.shape, ok = p.ints(sc.shape[:0])
			return ok
		}
		// The pool hands out a new scratch after each GC: start its buffer
		// at 64 values, one allocation, not doubling up from one.
		if sc.values, ok = p.floats(slices.Grow(sc.values[:0], 64)); ok {
			values = make([]float64, len(sc.values))
			copy(values, sc.values)
		}
		return ok
	})
	return values, ok
}

// appendInts appends ints as encoding/json encodes an []int.
func appendInts(b []byte, v []int) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendFloat appends a finite float64 exactly as encoding/json encodes
// it: the shortest representation, in 'e' form below 1e-6 and from 1e21 up,
// with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// The appendJSON methods append the response and a newline, byte for byte
// what json.Encoder.Encode writes for it. Floats must be finite.

func (r *pointResponse) appendJSON(b []byte) []byte {
	b = appendInts(append(b, `{"point":`...), r.Point)
	b = appendFloat(append(b, `,"value":`...), r.Value)
	b = strconv.AppendInt(append(b, `,"blocks_read":`...), int64(r.BlocksRead), 10)
	return appendTail(b, r.Degraded, r.Epoch)
}

func (r *rangeResponse) appendJSON(b []byte) []byte {
	b = appendInts(append(b, `{"start":`...), r.Start)
	b = appendInts(append(b, `,"extent":`...), r.Extent)
	b = appendFloat(append(b, `,"sum":`...), r.Sum)
	b = strconv.AppendInt(append(b, `,"blocks_read":`...), int64(r.BlocksRead), 10)
	return appendTail(b, r.Degraded, r.Epoch)
}

// appendTail closes a point or range response with its omitempty fields.
func appendTail(b []byte, degraded bool, epoch uint64) []byte {
	if degraded {
		b = append(b, `,"degraded":true`...)
	}
	if epoch != 0 {
		b = strconv.AppendUint(append(b, `,"epoch":`...), epoch, 10)
	}
	return append(b, "}\n"...)
}

func (r *ingestResult) appendJSON(b []byte) []byte {
	b = append(b, '{')
	field := func(name string) {
		if b[len(b)-1] != '{' {
			b = append(b, ',')
		}
		b = append(append(append(b, '"'), name...), `":`...)
	}
	if len(r.Offset) > 0 {
		field("offset")
		b = appendInts(b, r.Offset)
	}
	if r.Cells != 0 {
		field("cells")
		b = strconv.AppendInt(b, int64(r.Cells), 10)
	}
	if r.Group != 0 {
		field("group")
		b = strconv.AppendInt(b, r.Group, 10)
	}
	if r.Slabs != 0 {
		field("slabs")
		b = strconv.AppendInt(b, int64(r.Slabs), 10)
	}
	if r.Error != "" {
		// Error lines are rare; encoding/json keeps their escaping exact.
		msg, _ := json.Marshal(r.Error)
		field("error")
		b = append(b, msg...)
	}
	return append(b, "}\n"...)
}
