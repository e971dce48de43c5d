package store

import "math"

// Reference segment encoders whose dictionary trial is a Go map filled
// with up to maxDict2+1 entries per segment column. The writer's
// flat-table encoders are pinned against them byte for byte.

func refEncodeFloats(vals []float64) ([]byte, SegMeta) {
	bits := make([]uint64, len(vals))
	for i, v := range vals {
		bits[i] = math.Float64bits(v)
	}
	payload, meta := refEncodeWords(bits)
	// Zone map over value order; disabled when NaNs are present.
	meta.HasZone = len(vals) > 0
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v != v {
			meta.HasZone = false
			break
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if meta.HasZone {
		meta.MinBits = math.Float64bits(mn)
		meta.MaxBits = math.Float64bits(mx)
	}
	return payload, meta
}

func refEncodeInts(vals []int64) ([]byte, SegMeta) {
	bits := make([]uint64, len(vals))
	for i, v := range vals {
		bits[i] = uint64(v)
	}
	payload, meta := refEncodeWords(bits)
	if len(vals) > 0 {
		meta.HasZone = true
		mn, mx := vals[0], vals[0]
		for _, v := range vals[1:] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		meta.MinI, meta.MaxI = mn, mx
	}
	return payload, meta
}

// refEncodeWords picks raw / RLE / dict for a segment of 64-bit words.
func refEncodeWords(bits []uint64) ([]byte, SegMeta) {
	n := len(bits)
	runs := 1
	dict := make(map[uint64]int)
	for i, w := range bits {
		if i > 0 && w != bits[i-1] {
			runs++
		}
		if len(dict) <= maxDict2 {
			if _, ok := dict[w]; !ok {
				dict[w] = len(dict)
			}
		}
	}
	if n == 0 {
		runs = 0
	}
	rawSz := 8 * n
	rleSz := 4 + runs*12
	codeW := 1
	if len(dict) > maxDict1 {
		codeW = 2
	}
	dictSz := 4 + len(dict)*8 + n*codeW
	if len(dict) > maxDict2 {
		dictSz = rawSz + 1 // out of range
	}

	switch {
	case n > 0 && dictSz < rawSz && dictSz <= rleSz:
		// Dictionary: codes reference first-appearance order.
		out := make([]byte, 0, dictSz)
		out = put32(out, uint32(len(dict)))
		ordered := make([]uint64, len(dict))
		for w, c := range dict {
			ordered[c] = w
		}
		for _, w := range ordered {
			out = put64(out, w)
		}
		for _, w := range bits {
			c := dict[w]
			if codeW == 1 {
				out = append(out, byte(c))
			} else {
				out = append(out, byte(c), byte(c>>8))
			}
		}
		return out, SegMeta{Enc: encDict}
	case n > 0 && rleSz < rawSz:
		out := make([]byte, 0, rleSz)
		out = put32(out, uint32(runs))
		count := uint32(1)
		for i := 1; i <= n; i++ {
			if i < n && bits[i] == bits[i-1] {
				count++
				continue
			}
			out = put32(out, count)
			out = put64(out, bits[i-1])
			count = 1
		}
		return out, SegMeta{Enc: encRLE}
	default:
		out := make([]byte, 0, rawSz)
		for _, w := range bits {
			out = put64(out, w)
		}
		return out, SegMeta{Enc: encRaw}
	}
}

func refEncodeStrings(vals []string) ([]byte, SegMeta) {
	n := len(vals)
	dict := make(map[string]int)
	rawSz := 0
	dictBytes := 0
	for _, s := range vals {
		rawSz += 4 + len(s)
		if len(dict) <= maxDict2 {
			if _, ok := dict[s]; !ok {
				dict[s] = len(dict)
				dictBytes += 4 + len(s)
			}
		}
	}
	codeW := 1
	if len(dict) > maxDict1 {
		codeW = 2
	}
	dictSz := 4 + dictBytes + n*codeW

	var meta SegMeta
	if n > 0 {
		meta.HasZone = true
		mn, mx := vals[0], vals[0]
		for _, s := range vals[1:] {
			if s < mn {
				mn = s
			}
			if s > mx {
				mx = s
			}
		}
		meta.MinS, meta.MaxS = []byte(mn), []byte(mx)
	}

	if n > 0 && len(dict) <= maxDict2 && dictSz < rawSz {
		meta.Enc = encDict
		out := make([]byte, 0, dictSz)
		out = put32(out, uint32(len(dict)))
		ordered := make([]string, len(dict))
		for s, c := range dict {
			ordered[c] = s
		}
		for _, s := range ordered {
			out = put32(out, uint32(len(s)))
			out = append(out, s...)
		}
		for _, s := range vals {
			c := dict[s]
			if codeW == 1 {
				out = append(out, byte(c))
			} else {
				out = append(out, byte(c), byte(c>>8))
			}
		}
		return out, meta
	}
	meta.Enc = encRaw
	out := make([]byte, 0, rawSz)
	for _, s := range vals {
		out = put32(out, uint32(len(s)))
		out = append(out, s...)
	}
	return out, meta
}
