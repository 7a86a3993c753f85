package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"

	"sqlspl/internal/dialect"
)

// Every input the benchmark sends is a pure function of (seed, workload,
// index): request i is built from its own PCG stream, so the sequence is
// byte-identical for a seed whatever order connections take requests in,
// and no generator state is shared between goroutines.

// stmt is one generated statement with the label the referee checks
// answers against.
type stmt struct {
	text   string
	ok     bool      // the dialect accepts it (false = deliberately broken)
	tmpl   *template // shape it was drawn from
	broken string    // mutation applied when !ok
}

// template is one statement shape of a dialect.
type template struct {
	// kind is the wire type of the typed AST statement: select, insert,
	// update, delete or generic.
	kind string
	// baseline reports that internal/baseline models the valid form, so
	// its verdict is an independent cross-check of the label.
	baseline bool
	fill     func(r *rand.Rand, u uint64) string
}

// formattable reports whether /v1/format can render the statement:
// formatting refuses statements the typed AST keeps as source text.
func (t *template) formattable() bool { return t.kind != "generic" }

func pick(r *rand.Rand, ss []string) string { return ss[r.IntN(len(ss))] }

var (
	sensorCols = []string{"nodeid", "light", "temp", "accel", "mag", "voltage"}
	aggs       = []string{"AVG", "MIN", "MAX", "COUNT", "SUM"}
	cardTables = []string{"accounts", "purses", "holders", "keys_tbl"}
	cardCols   = []string{"id", "owner", "balance", "pin_tries", "status"}
	oltpTables = []string{"customers", "orders", "items", "payments", "stock"}
	oltpCols   = []string{"id", "name", "qty", "price", "created", "region", "status"}
	whMeasures = []string{"amount", "quantity", "discount", "net"}
	whDims     = []string{"region", "product", "channel", "year_col", "quarter"}
	cmpOps     = []string{"=", "<>", "<", ">", "<=", ">="}
)

// sensorClause is TinySQL's acquisitional tail; empty half the time, which
// keeps those statements inside the baseline parser's language.
func sensorClause(r *rand.Rand) string {
	switch r.IntN(6) {
	case 0:
		return fmt.Sprintf(" SAMPLE PERIOD %d", 256<<r.IntN(4))
	case 1:
		return fmt.Sprintf(" SAMPLE PERIOD %d FOR %d", 256<<r.IntN(4), 10+r.IntN(90))
	case 2:
		return fmt.Sprintf(" LIFETIME %d", 1+r.IntN(30))
	}
	return ""
}

var tinysqlTemplates = []*template{
	{kind: "select", fill: func(r *rand.Rand, u uint64) string {
		return fmt.Sprintf("SELECT %s, %s FROM sensors WHERE %s %s %d%s",
			pick(r, sensorCols), pick(r, sensorCols), pick(r, sensorCols), pick(r, cmpOps), u, sensorClause(r))
	}},
	{kind: "select", fill: func(r *rand.Rand, u uint64) string {
		return fmt.Sprintf("SELECT %s(%s) FROM sensors WHERE %s > %d GROUP BY %s%s",
			pick(r, aggs), pick(r, sensorCols), pick(r, sensorCols), u, pick(r, sensorCols), sensorClause(r))
	}},
	{kind: "select", fill: func(r *rand.Rand, u uint64) string {
		return fmt.Sprintf("SELECT * FROM sensors WHERE nodeid = %d%s", u, sensorClause(r))
	}},
	{kind: "select", fill: func(r *rand.Rand, u uint64) string {
		return fmt.Sprintf("SELECT DISTINCT %s FROM sensors WHERE %s < %d%s",
			pick(r, sensorCols), pick(r, sensorCols), u, sensorClause(r))
	}},
}

var scqlTemplates = []*template{
	{kind: "select", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		return fmt.Sprintf("SELECT %s, %s FROM %s WHERE id = %d", pick(r, cardCols), pick(r, cardCols), pick(r, cardTables), u)
	}},
	{kind: "insert", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		return fmt.Sprintf("INSERT INTO %s (id, %s) VALUES (%d, %d)", pick(r, cardTables), pick(r, cardCols), u, r.IntN(10000))
	}},
	{kind: "update", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		return fmt.Sprintf("UPDATE %s SET %s = %d WHERE id = %d", pick(r, cardTables), pick(r, cardCols), r.IntN(10000), u)
	}},
	{kind: "delete", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		return fmt.Sprintf("DELETE FROM %s WHERE %s %s %d", pick(r, cardTables), pick(r, cardCols), pick(r, cmpOps), u)
	}},
	{kind: "generic", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		return fmt.Sprintf("DECLARE c%d CURSOR FOR SELECT %s FROM %s WHERE status = %d",
			r.IntN(8), pick(r, cardCols), pick(r, cardTables), u)
	}},
	{kind: "select", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		return fmt.Sprintf("SELECT * FROM %s WHERE %s > %d", pick(r, cardTables), pick(r, cardCols), u)
	}},
}

var coreTemplates = []*template{
	{kind: "select", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		c1, c2 := pick(r, oltpCols), pick(r, oltpCols)
		return fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s = %d AND %s < %d",
			c1, c2, pick(r, oltpTables), c1, u, c2, r.IntN(1000))
	}},
	{kind: "select", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		return fmt.Sprintf("SELECT a.%s, b.%s FROM %s AS a LEFT JOIN %s AS b ON a.id = b.id WHERE a.%s > %d",
			pick(r, oltpCols), pick(r, oltpCols), pick(r, oltpTables), pick(r, oltpTables), pick(r, oltpCols), u)
	}},
	{kind: "select", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		c := pick(r, oltpCols)
		return fmt.Sprintf("SELECT COUNT(*), %s FROM %s GROUP BY %s HAVING COUNT(*) > %d", c, pick(r, oltpTables), c, u)
	}},
	{kind: "insert", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		return fmt.Sprintf("INSERT INTO %s (%s, %s) VALUES (%d, '%s')",
			pick(r, oltpTables), pick(r, oltpCols), pick(r, oltpCols), u, pick(r, oltpCols))
	}},
	{kind: "update", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		c := pick(r, oltpCols)
		return fmt.Sprintf("UPDATE %s SET %s = %s + %d WHERE %s IN (%d, %d, %d)",
			pick(r, oltpTables), c, c, r.IntN(10), pick(r, oltpCols), u, r.IntN(100), r.IntN(100))
	}},
	{kind: "select", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		c := pick(r, oltpCols)
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s BETWEEN %d AND %d ORDER BY %s DESC",
			c, pick(r, oltpTables), pick(r, oltpCols), r.IntN(100), u, c)
	}},
	{kind: "select", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		return fmt.Sprintf("SELECT %s FROM %s WHERE id IN (SELECT id FROM %s WHERE %s = %d)",
			pick(r, oltpCols), pick(r, oltpTables), pick(r, oltpTables), pick(r, oltpCols), u)
	}},
	{kind: "delete", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		return fmt.Sprintf("DELETE FROM %s WHERE %s < %d AND %s IS NULL", pick(r, oltpTables), pick(r, oltpCols), u, pick(r, oltpCols))
	}},
	{kind: "select", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		c := pick(r, oltpCols)
		return fmt.Sprintf("SELECT %s, CASE WHEN %s > %d THEN 'hi' ELSE 'lo' END AS band FROM %s",
			pick(r, oltpCols), c, u, pick(r, oltpTables))
	}},
}

var warehouseTemplates = append([]*template{
	{kind: "select", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		d1, d2 := pick(r, whDims), pick(r, whDims)
		return fmt.Sprintf("SELECT %s, %s(%s) FROM sales WHERE %s > %d GROUP BY ROLLUP (%s, %s)",
			d1, pick(r, aggs), pick(r, whMeasures), pick(r, whMeasures), u, d1, d2)
	}},
	{kind: "select", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		d := pick(r, whDims)
		return fmt.Sprintf("SELECT %s, RANK() OVER (PARTITION BY %s ORDER BY %s DESC) FROM sales WHERE %s < %d",
			d, d, pick(r, whMeasures), pick(r, whMeasures), u)
	}},
	{kind: "select", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		d, m := pick(r, whDims), pick(r, whMeasures)
		return fmt.Sprintf("SELECT %s FROM sales WHERE %s > ALL (SELECT %s FROM budget WHERE year_col = %d) GROUP BY %s",
			d, m, m, u, d)
	}},
	{kind: "select", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		d, m := pick(r, whDims), pick(r, whMeasures)
		return fmt.Sprintf("WITH top_sales AS (SELECT %s, %s FROM sales WHERE %s > %d) SELECT %s, %s(%s) FROM top_sales GROUP BY %s",
			d, m, m, u, d, pick(r, aggs), m, d)
	}},
	{kind: "select", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		d := pick(r, whDims)
		return fmt.Sprintf("SELECT %s FROM sales WHERE %s = %d UNION ALL SELECT %s FROM archive_sales", d, pick(r, whMeasures), u, d)
	}},
	{kind: "select", baseline: true, fill: func(r *rand.Rand, u uint64) string {
		d1, d2 := pick(r, whDims), pick(r, whDims)
		return fmt.Sprintf("SELECT %s, %s, SUM(%s) FROM sales WHERE %s <> %d GROUP BY CUBE (%s, %s)",
			d1, d2, pick(r, whMeasures), pick(r, whMeasures), u, d1, d2)
	}},
}, coreTemplates...)

// dialectSpec pairs a preset with the shapes generated for it.
type dialectSpec struct {
	name      string
	salt      uint64 // keeps dialects' streams apart for the same index
	templates []*template
}

var dialects = map[string]*dialectSpec{
	"tinysql":   {name: "tinysql", salt: 1, templates: tinysqlTemplates},
	"scql":      {name: "scql", salt: 2, templates: scqlTemplates},
	"core":      {name: "core", salt: 3, templates: coreTemplates},
	"warehouse": {name: "warehouse", salt: 4, templates: warehouseTemplates},
}

// leading keywords and their misspellings: a statement that starts with
// an identifier is outside every dialect's language.
var misspell = strings.NewReplacer("SELECT ", "SELEC ", "INSERT ", "INSER ", "UPDATE ", "UPDAT ",
	"DELETE ", "DELET ", "WITH ", "WIT ", "DECLARE ", "DECLAR ")

// mutate breaks a valid statement without touching '(' ')' quotes or ';',
// so a broken statement never changes where a script is cut.
func mutate(r *rand.Rand, s string) (string, string) {
	switch r.IntN(3) {
	case 0:
		head, rest, _ := strings.Cut(s, " ")
		return misspell.Replace(head+" ") + rest, "misspelled-keyword"
	case 1:
		return strings.Replace(s, " FROM ", " FROM FROM ", 1) + " AND", "doubled-from"
	}
	return s + " AND", "dangling-and"
}

// genStmt draws statement idx of a dialect. u (the statement's unique
// number) appears as a whole literal, so distinct u never collide.
func genStmt(seed uint64, d *dialectSpec, idx uint64, u uint64, brokenPer1000 int, needFormat bool) stmt {
	r := rand.New(rand.NewPCG(seed, idx*8+d.salt))
	var t *template
	for t == nil || (needFormat && !t.formattable()) {
		t = d.templates[r.IntN(len(d.templates))]
	}
	s := stmt{text: t.fill(r, u), ok: true, tmpl: t}
	if r.IntN(1000) < brokenPer1000 {
		s.text, s.broken = mutate(r, s.text)
		s.ok = false
	}
	return s
}

// Request shapes.
const (
	shapeVerdict  = "verdict"
	shapeRender   = "render"
	shapeAnalysis = "analysis"
	shapeAST      = "ast"
	shapeFormat   = "format"
	shapeStream   = "stream"
)

// request is one generated operation: the bytes the server sees plus the
// labels the referee needs.
type request struct {
	index    uint64
	shape    string
	dialect  string
	features bool // names the preset's feature list instead of the preset
	path     string
	body     []byte
	stmts    []stmt
}

type parseBody struct {
	Dialect  string   `json:"dialect,omitempty"`
	Features []string `json:"features,omitempty"`
	SQL      string   `json:"sql"`
	Want     string   `json:"want,omitempty"`
}

type formatBody struct {
	Dialect  string   `json:"dialect,omitempty"`
	Features []string `json:"features,omitempty"`
	SQL      string   `json:"sql"`
}

func presetFeatures(name string) []string {
	f, err := dialect.Features(dialect.Name(name))
	if err != nil {
		panic(err) // the four workload dialects are fixed presets
	}
	return f
}

// jsonRequest builds a /v1/parse or /v1/format request for one statement.
func jsonRequest(i uint64, shape string, d *dialectSpec, features bool, s stmt) request {
	req := request{index: i, shape: shape, dialect: d.name, features: features, stmts: []stmt{s}}
	var sel parseBody
	if features {
		sel.Features = presetFeatures(d.name)
	} else {
		sel.Dialect = d.name
	}
	var v any
	if shape == shapeFormat {
		req.path = "/v1/format"
		v = formatBody{Dialect: sel.Dialect, Features: sel.Features, SQL: s.text}
	} else {
		req.path = "/v1/parse"
		sel.SQL, sel.Want = s.text, shape
		v = sel
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	req.body = b
	return req
}

// workload is a named traffic shape.
type workload struct {
	name string
	// openRate is the open-loop arrival rate in requests per second; 0
	// means the workload runs closed loop only.
	openRate float64
	// baselineEvery: every n-th statement sent is cross-checked against
	// the baseline parser after the run (about 15000 statements).
	baselineEvery int
	// gen returns request i for a seed.
	gen func(seed, i uint64) request
}

var roundRobin = []string{"tinysql", "scql", "core", "warehouse"}

const (
	// hotSetSize is each dialect's hot set in gateway-hot: 4 x 256
	// statements (plus the same under the feature-list path) stay far
	// below the server's 16384-entry verdict cache.
	hotSetSize = 256
	// zipfS skews hot-set popularity: the top statement draws ~21% of a
	// dialect's traffic, the top 10% of statements ~70%.
	zipfS = 1.1
	// gatewayBrokenPer1000 keeps some rejected statements in the hot set,
	// so the referee sees both verdicts.
	gatewayBrokenPer1000 = 20
	ideBrokenPer1000     = 50
	bulkBrokenPer1000    = 20
	// bulkStatements per /v1/stream script: about 2.1 MB of SQL.
	bulkStatements = 26000
)

func gatewayHot(seed, i uint64) request {
	d := dialects[roundRobin[i%4]]
	r := rand.New(rand.NewPCG(seed^0x9a7e, i))
	j := rand.NewZipf(r, zipfS, 1, hotSetSize-1).Uint64()
	s := genStmt(seed, d, j, 1000+j, gatewayBrokenPer1000, false)
	// The custom-list requests are chosen apart from the round-robin, so
	// each preset's own list is used in 1 of 16 of its requests.
	return jsonRequest(i, shapeVerdict, d, (i/4)%16 == 15, s)
}

func ideUnique(seed, i uint64) request {
	d := dialects[roundRobin[i%4]]
	r := rand.New(rand.NewPCG(seed^0x1de, i))
	var shape string
	switch p := r.IntN(100); {
	case p < 40:
		shape = shapeRender
	case p < 65:
		shape = shapeAnalysis
	case p < 85:
		shape = shapeAST
	default:
		shape = shapeFormat
	}
	s := genStmt(seed, d, i, 1000+i, ideBrokenPer1000, shape == shapeFormat)
	return jsonRequest(i, shape, d, false, s)
}

func bulkStream(seed, i uint64) request {
	d := dialects[[]string{"core", "warehouse"}[i%2]]
	stmts := make([]stmt, bulkStatements)
	for k := range stmts {
		idx := i*bulkStatements + uint64(k)
		stmts[k] = genStmt(seed, d, idx, 1000+idx, bulkBrokenPer1000, false)
	}
	return scriptRequest(i, d, stmts)
}

// scriptRequest builds a /v1/stream request whose script holds stmts,
// each ended by ";\n".
func scriptRequest(i uint64, d *dialectSpec, stmts []stmt) request {
	var b strings.Builder
	for _, s := range stmts {
		b.WriteString(s.text)
		b.WriteString(";\n")
	}
	return request{index: i, shape: shapeStream, dialect: d.name, path: "/v1/stream?dialect=" + d.name,
		body: []byte(b.String()), stmts: stmts}
}

// The open-loop rates are about a tenth of each workload's closed-loop
// throughput on a shared 2-vCPU Xeon VM in a quiet hour (server and
// generator on one CPU each). That host slows down up to fourfold for
// minutes at a time: at a quarter (1800 and 800 req/s), such a spell cut
// ide-unique's capacity to about 1000 stmt/s, the open loop saturated the
// server, and p50 rose from 1.2 to 17 ms.
var workloads = []*workload{
	{name: "gateway-hot", openRate: 900, baselineEvery: 8, gen: gatewayHot},
	{name: "ide-unique", openRate: 400, baselineEvery: 1, gen: ideUnique},
	{name: "bulk-stream", baselineEvery: 40, gen: bulkStream},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (gateway-hot|ide-unique|bulk-stream)", name)
}
