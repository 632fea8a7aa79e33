package service

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// EdgeList is the wire form of a posted edge list: a JSON array of
// [u, v] node pairs. It marshals like the [][2]int it is.
type EdgeList [][2]int

// UnmarshalJSON decodes the pair array (or null, for no edges) that is
// the whole of data into the capacity of *l; see parsePairs.
func (l *EdgeList) UnmarshalJSON(data []byte) error {
	pairs, i, err := parsePairs(*l, data, skipSpace(data, 0))
	if err != nil {
		return fmt.Errorf("edges: %w", err)
	}
	if skipSpace(data, i) != len(data) {
		return errors.New("edges: data after the pair array")
	}
	*l = pairs
	return nil
}

// safeDigits is the most decimal digits that cannot overflow an int.
const safeDigits = 9 * strconv.IntSize / 32

// parsePairs decodes the pair array (or null) at data[i:] in one pass and
// returns it with the index just past it. Each pair must be exactly two
// JSON integers, with no fraction or exponent, that fit in an int. The
// pairs are appended to dst[:0], as encoding/json appends into the
// capacity of a slice it decodes into; an empty array is an empty list
// that is never nil. When dst is too small a new slice is sized by
// counting '[' bytes, capped at one pair per 6 bytes (the shortest pair
// plus its comma, "[0,1],"), so capacity follows the body's length and
// never a count the client states. Every read is bounds-checked: data
// need not have been validated as JSON first.
//
// This loop is the hot path of every posted instance, so the digit step
// is written out in it (skipSpace is inlined by the compiler); parseInt
// sees only the numbers that step does not cover, and reports them
// exactly.
func parsePairs(dst EdgeList, data []byte, i int) (EdgeList, int, error) {
	if isNull(data, i) {
		return nil, i + 4, nil
	}
	if i == len(data) || data[i] != '[' {
		return nil, 0, errors.New("want an array of [u, v] pairs or null")
	}
	start := i
	if i = skipSpace(data, i+1); i < len(data) && data[i] == ']' {
		if dst == nil {
			return EdgeList{}, i + 1, nil
		}
		return dst[:0], i + 1, nil
	}
	out := dst[:0]
	if want := min(bytes.Count(data[start:], []byte("[")), (len(data)-start)/6); cap(out) < want {
		out = make(EdgeList, 0, want)
	}
	for {
		if i == len(data) || data[i] != '[' {
			return nil, 0, fmt.Errorf("pair %d is not a [u, v] array", len(out))
		}
		var pair [2]int
		for k := range pair {
			i = skipSpace(data, i+1)
			num := i
			neg := i < len(data) && data[i] == '-'
			if neg {
				i++
			}
			digits := i
			var u int
			for ; i < len(data) && data[i]-'0' <= 9; i++ {
				u = u*10 + int(data[i]-'0')
			}
			if n := i - digits; n == 0 || n > safeDigits || n > 1 && data[digits] == '0' ||
				i < len(data) && (data[i] == '.' || data[i]|0x20 == 'e') {
				v, next, err := parseInt(data, num, strconv.IntSize)
				if err != nil {
					return nil, 0, fmt.Errorf("pair %d: %v", len(out), err)
				}
				u, i, neg = int(v), next, false
			}
			if neg {
				u = -u
			}
			pair[k] = u
			i = skipSpace(data, i)
			switch {
			case i == len(data):
				return nil, 0, fmt.Errorf("pair %d is unterminated", len(out))
			case k == 0 && data[i] == ']':
				return nil, 0, fmt.Errorf("pair %d has 1 number, want 2", len(out))
			case k == 1 && data[i] == ',':
				return nil, 0, fmt.Errorf("pair %d has more than 2 numbers", len(out))
			case k == 0 && data[i] != ',', k == 1 && data[i] != ']':
				return nil, 0, fmt.Errorf("pair %d: unexpected %q after a number", len(out), data[i])
			}
		}
		out = append(out, pair)
		i = skipSpace(data, i+1)
		if i < len(data) && data[i] == ',' {
			i = skipSpace(data, i+1)
			continue
		}
		if i < len(data) && data[i] == ']' {
			return out, i + 1, nil
		}
		return nil, 0, fmt.Errorf("want ',' or ']' after pair %d", len(out)-1)
	}
}

// isNull reports whether the literal null starts at data[i].
func isNull(data []byte, i int) bool {
	return len(data)-i >= 4 && string(data[i:i+4]) == "null"
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
// index after it. A fraction, an exponent or a value outside a signed
// integer of bits bits is an error.
func parseInt(data []byte, i, bits int) (int64, int, error) {
	start := i
	neg := i < len(data) && data[i] == '-'
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		i++
		limit++
	}
	digits := i
	var u uint64
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		if u > limit/10 {
			u = limit + 1 // past the limit; no more digits can fit
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
		return 0, 0, fmt.Errorf("%s overflows int%d", data[start:i], bits)
	}
	v := int64(u)
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
