package client

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"

	"repro/internal/par"
	"repro/priu/service"
)

// The create-body encoder. It writes the bytes json.Marshal writes for a
// service.CreateSessionRequest — the same field order, omitempty rules,
// string escaping and float format — without reflection, formatting the
// feature rows in parallel chunks. The body goes out as those chunks, with
// a Content-Length and no copy into one buffer.

// minRowChunk is the fewest feature values worth a chunk of their own.
const minRowChunk = 1 << 14

// encodeCreate returns json.Marshal(req) as consecutive pieces. Like
// json.Marshal, it fails on the first NaN or ±Inf in field order.
func encodeCreate(req *service.CreateSessionRequest) ([][]byte, error) {
	b := append([]byte(`{"family":`), quote(req.Family)...)
	var (
		pieces [][]byte
		err    error
	)
	if len(req.Features) > 0 {
		pieces = append(pieces, append(b, `,"features":[`...))
		rows, err := encodeRows(req.Features)
		if err != nil {
			return nil, err
		}
		pieces = append(pieces, rows...)
		b = []byte{']'}
	}
	b = append(b, `,"labels":`...)
	if b, err = appendFloats(b, req.Labels); err != nil {
		return nil, err
	}
	b = appendInt(b, `,"classes":`, req.Classes)
	if len(req.Indptr) > 0 {
		b = appendInts(append(b, `,"indptr":`...), req.Indptr)
	}
	if len(req.Indices) > 0 {
		b = appendInts(append(b, `,"indices":`...), req.Indices)
	}
	if len(req.Values) > 0 {
		if b, err = appendFloats(append(b, `,"values":`...), req.Values); err != nil {
			return nil, err
		}
	}
	b = appendInt(b, `,"cols":`, req.Cols)
	if b, err = appendFloat(append(b, `,"eta":`...), req.Eta); err != nil {
		return nil, err
	}
	if b, err = appendFloat(append(b, `,"lambda":`...), req.Lambda); err != nil {
		return nil, err
	}
	b = strconv.AppendInt(append(b, `,"batch_size":`...), int64(req.BatchSize), 10)
	b = strconv.AppendInt(append(b, `,"iterations":`...), int64(req.Iterations), 10)
	b = strconv.AppendInt(append(b, `,"seed":`...), req.Seed, 10)
	if req.Mode != "" {
		b = append(append(b, `,"mode":`...), quote(req.Mode)...)
	}
	if req.Epsilon != 0 {
		if b, err = appendFloat(append(b, `,"epsilon":`...), req.Epsilon); err != nil {
			return nil, err
		}
	}
	return append(pieces, append(b, '}')), nil
}

// encodeRows formats the rows of a features array, comma-separated, in
// chunks of consecutive rows on par workers.
func encodeRows(rows [][]float64) ([][]byte, error) {
	vals := 0
	for _, r := range rows {
		vals += len(r)
	}
	n := max(1, min(par.Workers()*4, vals/minRowChunk, len(rows)))
	chunks, errs := make([][]byte, n), make([]error, n)
	par.For(n, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			first, last := c*len(rows)/n, (c+1)*len(rows)/n
			b := make([]byte, 0, (last-first)*(2+24*len(rows[first])))
			for i := first; i < last && errs[c] == nil; i++ {
				if i > 0 {
					b = append(b, ',')
				}
				b, errs[c] = appendFloats(b, rows[i])
			}
			chunks[c] = b
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return chunks, nil
}

// appendFloats appends a float array, or null for a nil slice.
func appendFloats(b []byte, v []float64) ([]byte, error) {
	if v == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, f := range v {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloat(b, f); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendFloat appends f as encoding/json formats a float64: ES6 number
// formatting, exponent form below 1e-6 and from 1e21, e-09 written e-9.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendInts appends a non-empty int array.
func appendInts(b []byte, v []int) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendInt appends an omitempty int field: nothing when v is zero.
func appendInt(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// quote is encoding/json's encoding of a string.
func quote(s string) []byte {
	b, _ := json.Marshal(s) // a string always encodes
	return b
}

// piecesBody returns a replayable request body over pieces and its length.
func piecesBody(pieces [][]byte) (func() (io.ReadCloser, error), int64) {
	var n int64
	for _, p := range pieces {
		n += int64(len(p))
	}
	return func() (io.ReadCloser, error) {
		rs := make([]io.Reader, len(pieces))
		for i, p := range pieces {
			rs[i] = bytes.NewReader(p)
		}
		return io.NopCloser(io.MultiReader(rs...)), nil
	}, n
}
