package service

import (
	"bytes"
	"errors"
	"fmt"
	"math"
)

// EdgeList is the wire form of a posted edge list: a JSON array of
// [u, v] node pairs. It marshals like the [][2]int it is.
type EdgeList [][2]int

// UnmarshalJSON decodes the pair array in one pass over data. Each pair
// must be exactly two JSON integers, with no fraction or exponent, that
// fit in an int; null means no edges. The slice is sized by counting
// '[' bytes, capped at one pair per 6 bytes (the shortest pair plus its
// comma, "[0,1],"), so capacity follows the body's length and never a
// count the client states. Every read is bounds-checked: data need not
// have been validated as JSON first.
func (l *EdgeList) UnmarshalJSON(data []byte) error {
	i := skipSpace(data, 0)
	if bytes.HasPrefix(data[i:], []byte("null")) && skipSpace(data, i+4) == len(data) {
		*l = nil
		return nil
	}
	if i == len(data) || data[i] != '[' {
		return errors.New("edges: want an array of [u, v] pairs or null")
	}
	out := make(EdgeList, 0, min(bytes.Count(data, []byte("[")), len(data)/6))
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		i++
	} else {
		for {
			if i == len(data) || data[i] != '[' {
				return fmt.Errorf("edges: pair %d is not a [u, v] array", len(out))
			}
			var pair [2]int
			for k := range pair {
				i = skipSpace(data, i+1)
				v, next, err := parseInt(data, i)
				if err != nil {
					return fmt.Errorf("edges: pair %d: %v", len(out), err)
				}
				pair[k] = v
				i = skipSpace(data, next)
				switch {
				case i == len(data):
					return fmt.Errorf("edges: pair %d is unterminated", len(out))
				case k == 0 && data[i] == ']':
					return fmt.Errorf("edges: pair %d has 1 number, want 2", len(out))
				case k == 1 && data[i] == ',':
					return fmt.Errorf("edges: pair %d has more than 2 numbers", len(out))
				case k == 0 && data[i] != ',', k == 1 && data[i] != ']':
					return fmt.Errorf("edges: pair %d: unexpected %q after a number", len(out), data[i])
				}
			}
			out = append(out, pair)
			i = skipSpace(data, i+1)
			if i < len(data) && data[i] == ',' {
				i = skipSpace(data, i+1)
				continue
			}
			if i < len(data) && data[i] == ']' {
				i++
				break
			}
			return fmt.Errorf("edges: want ',' or ']' after pair %d", len(out)-1)
		}
	}
	if skipSpace(data, i) != len(data) {
		return errors.New("edges: data after the pair array")
	}
	*l = out
	return nil
}

// skipSpace returns the index of the first non-whitespace byte of data at
// or after i, or len(data).
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// parseInt reads the JSON integer at data[i:] — an optional minus sign,
// then 0 or digits without a leading zero — and returns its value and the
// index after it. A fraction, an exponent or a value outside int is an
// error.
func parseInt(data []byte, i int) (int, int, error) {
	start := i
	neg := i < len(data) && data[i] == '-'
	limit := uint64(math.MaxInt)
	if neg {
		i++
		limit++
	}
	digits := i
	var u uint64
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		if u > math.MaxInt/10 {
			u = math.MaxUint64 // past any limit; no more digits can fit
		} else {
			u = u*10 + uint64(data[i]-'0')
		}
	}
	switch {
	case i == digits:
		return 0, 0, errors.New("want an integer")
	case i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E'):
		return 0, 0, fmt.Errorf("%s is not an integer", numberToken(data, start))
	case data[digits] == '0' && i-digits > 1:
		return 0, 0, fmt.Errorf("%s has a leading zero", data[start:i])
	case u > limit:
		return 0, 0, fmt.Errorf("%s overflows int", data[start:i])
	}
	v := int(u)
	if neg {
		v = -v
	}
	return v, i, nil
}

// numberToken returns the run of number characters at data[i:].
func numberToken(data []byte, i int) []byte {
	j := i
	for j < len(data) && bytes.IndexByte([]byte("0123456789+-.eE"), data[j]) >= 0 {
		j++
	}
	return data[i:j]
}
