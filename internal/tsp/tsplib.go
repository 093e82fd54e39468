package tsp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"distclk/internal/geom"
)

// ReadTSPLIB parses a TSPLIB-format .tsp file. Supported EDGE_WEIGHT_TYPEs:
// EUC_2D, CEIL_2D, ATT, GEO, MAN_2D, MAX_2D, and EXPLICIT with
// EDGE_WEIGHT_FORMAT FULL_MATRIX, UPPER_ROW, LOWER_ROW, UPPER_DIAG_ROW, or
// LOWER_DIAG_ROW.
func ReadTSPLIB(r io.Reader) (*Instance, error) {
	return ReadTSPLIBLimit(r, 0)
}

// ReadTSPLIBLimit is ReadTSPLIB rejecting a DIMENSION above maxN as soon as
// it is read, before any coordinates or edge weights are stored (maxN <= 0
// means no limit). Services parsing untrusted uploads use it so that the
// declared size cannot drive an allocation.
func ReadTSPLIBLimit(r io.Reader, maxN int) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	var (
		name, comment    string
		dimension        = -1
		weightType       string
		weightFormat     string
		pts              []geom.Point
		matrixVals       []int64
		inCoords, inEdge bool
	)

	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		upper := strings.ToUpper(line)
		switch {
		case upper == "EOF":
			inCoords, inEdge = false, false
		case strings.HasPrefix(upper, "NAME"):
			name = keywordValue(line)
			inCoords, inEdge = false, false
		case strings.HasPrefix(upper, "COMMENT"):
			comment = keywordValue(line)
			inCoords, inEdge = false, false
		case strings.HasPrefix(upper, "TYPE"):
			t := strings.ToUpper(keywordValue(line))
			if t != "TSP" && t != "STSP" {
				return nil, fmt.Errorf("tsp: unsupported TYPE %q (only symmetric TSP)", t)
			}
			inCoords, inEdge = false, false
		case strings.HasPrefix(upper, "DIMENSION"):
			d, err := strconv.Atoi(keywordValue(line))
			if err != nil {
				return nil, fmt.Errorf("tsp: bad DIMENSION: %v", err)
			}
			if maxN > 0 && d > maxN {
				return nil, fmt.Errorf("tsp: DIMENSION %d exceeds the limit %d", d, maxN)
			}
			dimension = d
			inCoords, inEdge = false, false
		case strings.HasPrefix(upper, "EDGE_WEIGHT_TYPE"):
			weightType = strings.ToUpper(keywordValue(line))
			inCoords, inEdge = false, false
		case strings.HasPrefix(upper, "EDGE_WEIGHT_FORMAT"):
			weightFormat = strings.ToUpper(keywordValue(line))
			inCoords, inEdge = false, false
		case upper == "NODE_COORD_SECTION" || upper == "DISPLAY_DATA_SECTION":
			inCoords, inEdge = upper == "NODE_COORD_SECTION", false
		case upper == "EDGE_WEIGHT_SECTION":
			inCoords, inEdge = false, true
		case strings.HasSuffix(upper, "_SECTION") || strings.HasSuffix(upper, "_SECTION:"):
			// Unknown section (FIXED_EDGES etc.): skip its lines.
			inCoords, inEdge = false, false
		case inCoords:
			fields := strings.Fields(line)
			if len(fields) < 3 {
				return nil, fmt.Errorf("tsp: bad coordinate line %q", line)
			}
			x, err1 := strconv.ParseFloat(fields[1], 64)
			y, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("tsp: bad coordinate line %q", line)
			}
			pts = append(pts, geom.Point{X: x, Y: y})
		case inEdge:
			for _, f := range strings.Fields(line) {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("tsp: bad edge weight %q", f)
				}
				matrixVals = append(matrixVals, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if dimension <= 0 {
		return nil, fmt.Errorf("tsp: missing DIMENSION")
	}

	if weightType == "EXPLICIT" {
		m, err := expandMatrix(dimension, weightFormat, matrixVals)
		if err != nil {
			return nil, err
		}
		inst, err := NewExplicit(name, dimension, m)
		if err != nil {
			return nil, err
		}
		inst.Comment = comment
		return inst, nil
	}

	metric, err := geom.ParseMetric(weightType)
	if err != nil {
		return nil, fmt.Errorf("tsp: %w", err)
	}
	if len(pts) != dimension {
		return nil, fmt.Errorf("tsp: got %d coordinates, DIMENSION %d", len(pts), dimension)
	}
	inst := New(name, metric, pts)
	inst.Comment = comment
	return inst, nil
}

func keywordValue(line string) string {
	if i := strings.IndexByte(line, ':'); i >= 0 {
		return strings.TrimSpace(line[i+1:])
	}
	fields := strings.Fields(line)
	if len(fields) > 1 {
		return fields[1]
	}
	return ""
}

// expandMatrix builds the full n×n matrix from an EDGE_WEIGHT_SECTION. It
// checks the declared size and the number of values supplied before
// allocating, so a small file with a huge DIMENSION fails fast instead of
// reserving n² words.
func expandMatrix(n int, format string, vals []int64) ([]int64, error) {
	if n > math.MaxInt32 { // keeps n*n below the int64 range
		return nil, fmt.Errorf("tsp: DIMENSION %d too large for an explicit matrix", n)
	}
	var need int
	switch format {
	case "FULL_MATRIX":
		need = n * n
	case "UPPER_ROW", "LOWER_ROW":
		need = n * (n - 1) / 2
	case "UPPER_DIAG_ROW", "LOWER_DIAG_ROW":
		need = n * (n + 1) / 2
	default:
		return nil, fmt.Errorf("tsp: unsupported EDGE_WEIGHT_FORMAT %q", format)
	}
	if len(vals) < need {
		return nil, fmt.Errorf("tsp: %s needs %d values, got %d", format, need, len(vals))
	}
	m := make([]int64, n*n)
	set := func(i, j int, v int64) {
		m[i*n+j] = v
		m[j*n+i] = v
	}
	k := 0
	switch format {
	case "FULL_MATRIX":
		copy(m, vals[:need])
	case "UPPER_ROW":
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				set(i, j, vals[k])
				k++
			}
		}
	case "LOWER_ROW":
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				set(i, j, vals[k])
				k++
			}
		}
	case "UPPER_DIAG_ROW":
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				set(i, j, vals[k])
				k++
			}
		}
	case "LOWER_DIAG_ROW":
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				set(i, j, vals[k])
				k++
			}
		}
	}
	return m, nil
}

// LoadTSPLIB reads a .tsp file from disk.
func LoadTSPLIB(path string) (*Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTSPLIB(f)
}

// WriteTSPLIB writes a geometric instance in TSPLIB format.
func WriteTSPLIB(w io.Writer, in *Instance) error {
	if in.Explicit() {
		return fmt.Errorf("tsp: writing EXPLICIT instances is not supported")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "NAME : %s\n", in.Name)
	if in.Comment != "" {
		fmt.Fprintf(bw, "COMMENT : %s\n", in.Comment)
	}
	fmt.Fprintf(bw, "TYPE : TSP\n")
	fmt.Fprintf(bw, "DIMENSION : %d\n", in.N())
	fmt.Fprintf(bw, "EDGE_WEIGHT_TYPE : %s\n", in.Metric)
	fmt.Fprintf(bw, "NODE_COORD_SECTION\n")
	for i, p := range in.Pts {
		fmt.Fprintf(bw, "%d %g %g\n", i+1, p.X, p.Y)
	}
	fmt.Fprintf(bw, "EOF\n")
	return bw.Flush()
}

// ReadTourFile parses a TSPLIB .tour file (TOUR_SECTION with 1-based city
// numbers terminated by -1 or EOF).
func ReadTourFile(r io.Reader, n int) (Tour, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var tour Tour
	inTour := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		upper := strings.ToUpper(line)
		if upper == "TOUR_SECTION" {
			inTour = true
			continue
		}
		if !inTour {
			continue
		}
		for _, f := range strings.Fields(line) {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("tsp: bad tour entry %q", f)
			}
			if v == -1 {
				inTour = false
				break
			}
			tour = append(tour, int32(v-1))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := tour.Validate(n); err != nil {
		return nil, err
	}
	return tour, nil
}

// WriteTourFile writes a tour in TSPLIB .tour format with 1-based cities.
func WriteTourFile(w io.Writer, name string, t Tour) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "NAME : %s\nTYPE : TOUR\nDIMENSION : %d\nTOUR_SECTION\n", name, len(t))
	for _, c := range t {
		fmt.Fprintf(bw, "%d\n", c+1)
	}
	fmt.Fprintf(bw, "-1\nEOF\n")
	return bw.Flush()
}
