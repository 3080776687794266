package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"unsafe"

	"repro/internal/par"
)

// The training-upload decoder. A create body (POST /v2/sessions, and v1's
// POST /v1/train) is almost all numbers: at n=20000, m=32 it is 12.65 MB of
// features. encoding/json spends its time stepping a state machine per byte
// and reflecting per element, so this decoder walks the top-level object
// itself and parses the bulk arrays (features, labels, indptr, indices,
// values) straight from the bytes. It accepts exactly what
// json.NewDecoder(body).Decode(&req) accepts and yields the same values:
//
//   - every number is checked against the JSON number grammar and converted
//     by strconv.ParseFloat/Atoi, as encoding/json converts it, so the bits
//     are identical and 1e400, 1.0 into an int, 01, +1 and .5 still fail;
//   - keys match field names exactly or case-insensitively (bytes.EqualFold,
//     after unescaping), unknown keys are validated and ignored, and a
//     repeated key decodes again into the earlier value, so the last one
//     wins with encoding/json's reuse of the earlier slices (a null element
//     keeps the value the reused slot held);
//   - every other key's value goes to encoding/json as it is, so scalar type
//     errors read as before;
//   - bytes after the closing brace are not looked at, as Decoder.Decode
//     does not look at them.
//
// Features decode into one flat row-major backing array with one row view
// per row. The array is cut at row starts and the pieces parse on par
// workers. The first row's capacity runs to the end of the array, so the
// dataset can take the array whole instead of copying it (denseData).

// bodyField maps one JSON key to the field it decodes into. ptr is
// *[][]float64, *[]float64 or *[]int for the bulk arrays; anything else is
// handed to encoding/json.
type bodyField struct {
	name string
	ptr  any
}

// maxBodyHint caps how much a declared Content-Length may preallocate.
const maxBodyHint = 64 << 20

// readBody reads a request body whole, sized from its Content-Length.
func readBody(r *http.Request) ([]byte, error) {
	hint := r.ContentLength
	if hint < 0 || hint > maxBodyHint {
		hint = 0
	}
	buf := bytes.NewBuffer(make([]byte, 0, hint+bytes.MinRead))
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// decodeCreate decodes a POST /v2/sessions body into req.
func decodeCreate(b []byte, req *CreateSessionRequest) error {
	return decodeBody(b, reflect.TypeFor[CreateSessionRequest](), []bodyField{
		{"family", &req.Family}, {"features", &req.Features}, {"labels", &req.Labels},
		{"classes", &req.Classes}, {"indptr", &req.Indptr}, {"indices", &req.Indices},
		{"values", &req.Values}, {"cols", &req.Cols}, {"eta", &req.Eta},
		{"lambda", &req.Lambda}, {"batch_size", &req.BatchSize}, {"iterations", &req.Iterations},
		{"seed", &req.Seed}, {"mode", &req.Mode}, {"epsilon", &req.Epsilon},
	})
}

// decodeTrain decodes a POST /v1/train body into req.
func decodeTrain(b []byte, req *TrainRequest) error {
	return decodeBody(b, reflect.TypeFor[TrainRequest](), []bodyField{
		{"kind", &req.Kind}, {"features", &req.Features}, {"labels", &req.Labels},
		{"classes", &req.Classes}, {"eta", &req.Eta}, {"lambda", &req.Lambda},
		{"batch_size", &req.BatchSize}, {"iterations", &req.Iterations}, {"seed", &req.Seed},
	})
}

// decodeBody decodes the JSON object at the start of b into fields; typ is
// the struct they belong to, named in type errors.
func decodeBody(b []byte, typ reflect.Type, fields []bodyField) error {
	i := skipWS(b, 0)
	if i == len(b) {
		return io.EOF
	}
	if b[i] != '{' {
		// A top-level null leaves the request zero; any other value is a
		// syntax or type error, as for encoding/json.
		if bytes.HasPrefix(b[i:], []byte("null")) {
			return nil
		}
		if _, err := skipValue(b, i, 0); err != nil {
			return err
		}
		return &json.UnmarshalTypeError{Value: kindOf(b[i]), Type: typ, Offset: int64(i)}
	}
	i = skipWS(b, i+1)
	if i < len(b) && b[i] == '}' {
		return nil
	}
	// spans is the features while their first row's capacity spans the
	// whole array rowsFresh cut them from. A repeated features key reuses
	// the rows in place, so that row is first capped at its length, which
	// is where rowsFresh would have capped it.
	var spans *[][]float64
	for {
		if i >= len(b) {
			return io.ErrUnexpectedEOF
		}
		if b[i] != '"' {
			return syntaxErr(b, i, "looking for beginning of object key string")
		}
		kend, err := scanString(b, i)
		if err != nil {
			return err
		}
		f := lookupField(fields, b[i:kend])
		if i = skipWS(b, kend); i >= len(b) {
			return io.ErrUnexpectedEOF
		}
		if b[i] != ':' {
			return syntaxErr(b, i, "after object key")
		}
		if i = skipWS(b, i+1); i >= len(b) {
			return io.ErrUnexpectedEOF
		}
		if f == nil {
			i, err = skipValue(b, i, 1)
		} else {
			rows, _ := f.ptr.(*[][]float64)
			if rows != nil && rows == spans {
				r := (*rows)[0]
				(*rows)[0], spans = r[:len(r):len(r)], nil
			}
			fresh := rows != nil && *rows == nil
			i, err = f.decode(b, i, typ)
			if fresh && len(*rows) > 0 && (*rows)[0] != nil {
				spans = rows
			}
		}
		if err != nil {
			return err
		}
		if i = skipWS(b, i); i >= len(b) {
			return io.ErrUnexpectedEOF
		}
		switch b[i] {
		case ',':
			i = skipWS(b, i+1)
		case '}':
			return nil
		default:
			return syntaxErr(b, i, "after object key:value pair")
		}
	}
}

// lookupField returns the field a quoted key names, or nil.
func lookupField(fields []bodyField, quoted []byte) *bodyField {
	key := quoted[1 : len(quoted)-1]
	for _, c := range key {
		if c == '\\' || c >= 0x80 {
			// Escapes and invalid UTF-8 unquote as encoding/json unquotes them.
			var s string
			if json.Unmarshal(quoted, &s) != nil {
				return nil
			}
			key = []byte(s)
			break
		}
	}
	for i := range fields {
		if bytes.EqualFold(key, []byte(fields[i].name)) {
			return &fields[i]
		}
	}
	return nil
}

// decode decodes the value at b[i] into f and returns the offset after it.
func (f *bodyField) decode(b []byte, i int, typ reflect.Type) (int, error) {
	end, err := f.decodeValue(b, i)
	var te *json.UnmarshalTypeError
	if errors.As(err, &te) {
		te.Struct, te.Field = typ.Name(), f.name
	}
	return end, err
}

func (f *bodyField) decodeValue(b []byte, i int) (end int, err error) {
	if b[i] == '[' {
		switch p := f.ptr.(type) {
		case *[][]float64:
			if *p == nil {
				*p, end, err = rowsFresh(b, i, min(par.Workers()*4, (len(b)-i)/minRowPiece+1))
			} else {
				*p, end, err = arrayInto(b, i, *p, decodeRow)
			}
			return end, err
		case *[]float64:
			*p, end, err = arrayInto(b, i, *p, floatElem)
			return end, err
		case *[]int:
			*p, end, err = arrayInto(b, i, *p, intElem)
			return end, err
		}
	}
	if end, err = skipValue(b, i, 1); err != nil {
		return end, err
	}
	return end, json.Unmarshal(b[i:end], f.ptr)
}

// elemFunc decodes the array element at b[i] into *dst — the slot a reused
// slice already holds, or zero — and returns the offset after it.
type elemFunc[T any] func(b []byte, i int, dst *T) (int, error)

// arrayInto decodes the array at b[i] == '[' into s with encoding/json's
// slice rules: the elements overwrite s's slots in place, the slice grows
// one element at a time past its capacity, it ends at the element count,
// and an empty array is a new empty slice. A fresh slice is sized from the
// commas before the first ']', so a flat array of numbers allocates once.
func arrayInto[T any](b []byte, i int, s []T, elem elemFunc[T]) ([]T, int, error) {
	if i = skipWS(b, i+1); i < len(b) && b[i] == ']' {
		return make([]T, 0), i + 1, nil
	}
	if s == nil {
		if n := bytes.IndexByte(b[i:], ']'); n >= 0 {
			s = make([]T, 0, bytes.Count(b[i:i+n], []byte(","))+1)
		}
	}
	var err error
	for n := 0; ; n++ {
		if n >= cap(s) {
			var zero T
			s = append(s, zero)
		} else if n >= len(s) {
			s = s[:n+1]
		}
		if i >= len(b) {
			return s, i, io.ErrUnexpectedEOF
		}
		if i, err = elem(b, i, &s[n]); err != nil {
			return s, i, err
		}
		if i = skipWS(b, i); i >= len(b) {
			return s, i, io.ErrUnexpectedEOF
		}
		switch b[i] {
		case ',':
			i = skipWS(b, i+1)
		case ']':
			return s[:n+1], i + 1, nil
		default:
			return s, i, syntaxErr(b, i, "after array element")
		}
	}
}

// The element decoders for number slots.
var (
	floatElem = decodeNum(func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	intElem   = decodeNum(strconv.Atoi)
)

// decodeNum returns the element decoder for a number slot: a number
// converted by parse, or null, which keeps the slot.
func decodeNum[T any](parse func(string) (T, error)) elemFunc[T] {
	return func(b []byte, i int, dst *T) (int, error) {
		switch c := b[i]; {
		case c == 'n':
			return literal(b, i, "null")
		case c != '-' && (c < '0' || c > '9'):
			return elemTypeErr[T](b, i)
		}
		end, err := scanNumber(b, i)
		if err != nil {
			return end, err
		}
		// strconv keeps no reference to its argument (its errors copy it),
		// so the token is viewed in place rather than copied.
		v, err := parse(unsafe.String(&b[i], end-i))
		if err != nil {
			var zero T
			return end, &json.UnmarshalTypeError{Value: "number " + string(b[i:end]), Type: reflect.TypeOf(zero), Offset: int64(end)}
		}
		*dst = v
		return end, nil
	}
}

// decodeRow decodes one features row into the row slot: null clears it,
// an array decodes into it.
func decodeRow(b []byte, i int, dst *[]float64) (end int, err error) {
	if b[i] == 'n' {
		*dst = nil
		return literal(b, i, "null")
	}
	if b[i] != '[' {
		return elemTypeErr[[]float64](b, i)
	}
	*dst, end, err = arrayInto(b, i, *dst, floatElem)
	return end, err
}

// rowPiece is one stretch of a features array parsed by one worker: the
// rows starting in [lo, stop), their lengths (-1 for a null row) and
// values, and where it ended — at stop (end < 0) or past the closing ']'.
type rowPiece struct {
	lo, stop   int
	vals       []float64
	lens       []int
	nvals, nrw int
	end        int
	err        error
}

// minRowPiece is the smallest stretch of bytes worth a worker of its own.
const minRowPiece = 256 << 10

// rowsFresh decodes a features array at b[i] == '[' into a new value: one
// flat backing array, each row a view of it with its length as capacity —
// except the first, whose capacity is the rest of the array.
// The bytes from i on are cut at row starts ('[') into pieces parsed on par
// workers; each piece is cut before any parse, so a piece's rows lie
// between its cut and the next, and it stops when it reaches the next cut
// at the start of a row. A piece cannot run past a later cut: there a '['
// stands where a number, ',' or ']' is due, which is an error. Pieces
// starting after the array's closing ']' are discarded. n bounds the
// number of pieces.
func rowsFresh(b []byte, i, n int) ([][]float64, int, error) {
	pieces := []rowPiece{{lo: i, stop: -1}}
	for k := 1; k < n; k++ {
		at := i + k*(len(b)-i)/n
		last := &pieces[len(pieces)-1]
		if at <= last.lo {
			continue
		}
		j := bytes.IndexByte(b[at:], '[')
		if j < 0 {
			break
		}
		last.stop = at + j
		pieces = append(pieces, rowPiece{lo: at + j, stop: -1})
	}
	// Size each piece's share of the backing arrays: a row starts with '['
	// or is null, and every value but a piece's last is followed by ','.
	nvals, nrows := make([]int, len(pieces)), make([]int, len(pieces))
	par.For(len(pieces), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			p := b[pieces[k].lo:]
			if pieces[k].stop >= 0 {
				p = b[pieces[k].lo:pieces[k].stop]
			}
			nvals[k] = bytes.Count(p, []byte(",")) + 1
			nrows[k] = bytes.Count(p, []byte("[")) + bytes.Count(p, []byte("n"))
		}
	})
	var tv, tr int
	for k := range pieces {
		tv, tr = tv+nvals[k], tr+nrows[k]
	}
	flat, lens := make([]float64, tv), make([]int, tr)
	tv, tr = 0, 0
	for k := range pieces {
		pieces[k].vals = flat[tv : tv+nvals[k] : tv+nvals[k]]
		pieces[k].lens = lens[tr : tr+nrows[k]]
		tv, tr = tv+nvals[k], tr+nrows[k]
	}
	par.For(len(pieces), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			pieces[k].parse(b, k == 0)
		}
	})
	// Chain the pieces in order, packing values and lengths to the front.
	tv, tr = 0, 0
	for k := range pieces {
		p := &pieces[k]
		if p.err != nil {
			return nil, p.lo, p.err
		}
		tv += copy(flat[tv:], p.vals[:p.nvals])
		tr += copy(lens[tr:], p.lens[:p.nrw])
		if p.end < 0 {
			continue
		}
		rows := make([][]float64, tr)
		off := 0
		for r, l := range lens[:tr] {
			if l >= 0 {
				rows[r] = flat[off : off+l : off+l]
				off += l
			}
		}
		if tr > 0 && rows[0] != nil {
			rows[0] = flat[:len(rows[0]):tv]
		}
		return rows, p.end, nil
	}
	return nil, len(b), io.ErrUnexpectedEOF
}

// parse parses the piece's rows. The first piece starts at the array's
// '['; the others start at a row.
func (p *rowPiece) parse(b []byte, first bool) {
	p.end = -1
	i := p.lo
	if first {
		if i = skipWS(b, i+1); i < len(b) && b[i] == ']' {
			p.end = i + 1
			return
		}
	}
	for {
		if i == p.stop {
			return
		}
		if i >= len(b) {
			p.err = io.ErrUnexpectedEOF
			return
		}
		row := p.vals[p.nvals:p.nvals]
		if i, p.err = decodeRow(b, i, &row); p.err != nil {
			return
		}
		p.lens[p.nrw] = -1
		if row != nil {
			p.lens[p.nrw] = len(row)
			p.nvals += len(row)
		}
		p.nrw++
		if i = skipWS(b, i); i >= len(b) {
			p.err = io.ErrUnexpectedEOF
			return
		}
		switch b[i] {
		case ',':
			i = skipWS(b, i+1)
		case ']':
			p.end = i + 1
			return
		default:
			p.err = syntaxErr(b, i, "after array element")
			return
		}
	}
}

// elemTypeErr reports the value at b[i] as the wrong type for an element of
// type T — after checking its syntax, which encoding/json reports first.
func elemTypeErr[T any](b []byte, i int) (int, error) {
	end, err := skipValue(b, i, 2)
	if err != nil {
		return end, err
	}
	var zero T
	return end, &json.UnmarshalTypeError{Value: kindOf(b[i]), Type: reflect.TypeOf(zero), Offset: int64(end)}
}

// kindOf names the kind of JSON value starting with c, as type errors do.
func kindOf(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	}
	return "number"
}

func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// maxDepth is encoding/json's nesting limit; the top-level object counts.
const maxDepth = 10000

// skipValue checks the syntax of the JSON value at b[i], nested depth
// levels deep, and returns the offset after it.
func skipValue(b []byte, i, depth int) (int, error) {
	if i >= len(b) {
		return i, io.ErrUnexpectedEOF
	}
	switch c := b[i]; {
	case c == '"':
		return scanString(b, i)
	case c == '-' || '0' <= c && c <= '9':
		return scanNumber(b, i)
	case c == 't':
		return literal(b, i, "true")
	case c == 'f':
		return literal(b, i, "false")
	case c == 'n':
		return literal(b, i, "null")
	case c == '[' || c == '{':
		if depth++; depth > maxDepth {
			return i, syntaxErr(b, i, "exceeded max depth")
		}
		closer := byte(']')
		if c == '{' {
			closer = '}'
		}
		if i = skipWS(b, i+1); i < len(b) && b[i] == closer {
			return i + 1, nil
		}
		for {
			var err error
			if c == '{' {
				if i >= len(b) || b[i] != '"' {
					return i, syntaxErr(b, i, "looking for beginning of object key string")
				}
				if i, err = scanString(b, i); err != nil {
					return i, err
				}
				if i = skipWS(b, i); i >= len(b) || b[i] != ':' {
					return i, syntaxErr(b, i, "after object key")
				}
				i = skipWS(b, i+1)
			}
			if i, err = skipValue(b, i, depth); err != nil {
				return i, err
			}
			if i = skipWS(b, i); i >= len(b) {
				return i, io.ErrUnexpectedEOF
			}
			switch b[i] {
			case ',':
				i = skipWS(b, i+1)
			case closer:
				return i + 1, nil
			default:
				return i, syntaxErr(b, i, "after value")
			}
		}
	}
	return i, syntaxErr(b, i, "looking for beginning of value")
}

// scanString checks the string at b[i] == '"' and returns the offset after
// its closing quote. Like encoding/json it rejects control bytes and bad
// escapes and lets any other byte through.
func scanString(b []byte, i int) (int, error) {
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, nil
		case c < 0x20:
			return i, syntaxErr(b, i, "in string literal")
		case c == '\\':
			if i++; i >= len(b) {
				return i, io.ErrUnexpectedEOF
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i >= len(b) {
						return i, io.ErrUnexpectedEOF
					}
					if !isHex(b[i]) {
						return i, syntaxErr(b, i, "in \\u hexadecimal character escape")
					}
				}
			default:
				return i, syntaxErr(b, i, "in string escape code")
			}
		}
	}
	return i, io.ErrUnexpectedEOF
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// scanNumber checks the JSON number at b[i] and returns the offset after
// it: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func scanNumber(b []byte, i int) (int, error) {
	if b[i] == '-' {
		i++
	}
	switch {
	case i >= len(b):
		return i, io.ErrUnexpectedEOF
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return i, syntaxErr(b, i, "in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return j, numEnd(b, j)
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return j, numEnd(b, j)
		}
		i = j
	}
	return i, nil
}

// numEnd is the error for a number cut short at b[i].
func numEnd(b []byte, i int) error {
	if i >= len(b) {
		return io.ErrUnexpectedEOF
	}
	return syntaxErr(b, i, "in numeric literal")
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// literal checks that b[i:] starts with lit and returns the offset after it.
func literal(b []byte, i int, lit string) (int, error) {
	for k := 0; k < len(lit); k, i = k+1, i+1 {
		if i >= len(b) {
			return i, io.ErrUnexpectedEOF
		}
		if b[i] != lit[k] {
			return i, syntaxErr(b, i, "in literal "+lit)
		}
	}
	return i, nil
}

// syntaxErr describes the byte at b[i] the way encoding/json's syntax
// errors do, or an early end of input.
func syntaxErr(b []byte, i int, context string) error {
	if i >= len(b) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", rune(b[i]), context, i)
}
