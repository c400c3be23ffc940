package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"flashextract/internal/engine"
	"flashextract/internal/export"
	"flashextract/internal/region"
	"flashextract/internal/schema"
	"flashextract/internal/textlang"
)

// logSchema is the output schema of every generated log: the corpus hadoop
// task's, with every timestamp and every WARN message golden.
const logSchema = `Struct(Stamps: Seq([ts] String), Warnings: Seq([warnmsg] String))`

// logColors are the fields of logSchema in schema order.
var logColors = []string{"ts", "warnmsg"}

// logDoc is one generated DataNode log: its source text and, per field
// color, the golden byte ranges in document order.
type logDoc struct {
	name   string
	source string
	golden map[string][][2]int
}

var (
	logComponents = []string{"dn.storage", "dn.ipc", "dn.scanner", "dn.web"}
	logInfo       = []string{
		"Block pool registered",
		"Heartbeat sent to namenode",
		"Scanning block pool",
		"Scan finished",
		"Received block from client",
		"Deleted replica as instructed",
		"Verification succeeded for blk",
	}
	logWarn = []string{
		"Disk latency above threshold",
		"Replica count below target",
		"Checksum mismatch during scan",
		"Slow flush to disk detected",
		"Namenode connection retried",
	}
)

// genLog writes a DataNode log shaped like the corpus hadoop-xl document:
// one record per line (timestamp, component, INFO or WARN, message), with
// one WARN in each block of four records, so logs of one length differ in
// content but not in how much there is to extract.
//
// Records 0-4 are fixed to INFO, WARN, INFO, INFO, WARN, and the two WARN
// messages differ. Each field is learned from its first two golden
// instances; when those are on adjacent lines or carry the same message,
// the learner rightly returns a program wider than the golden set, and a
// seed would decide whether the workload fails.
func genLog(name string, seed int64, records int) logDoc {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	golden := map[string][][2]int{}
	field := func(color, s string) {
		start := b.Len()
		b.WriteString(s)
		golden[color] = append(golden[color], [2]int{start, b.Len()})
	}
	b.WriteString("DataNode log excerpt (extended capture)\n")
	day, clock := 1+rng.Intn(20), rng.Intn(80000)
	firstWarn := -1
	warnAt := 1 // the WARN record of the current block of four
	for i := 0; i < records; i++ {
		switch {
		case i == 4:
			warnAt = 4
		case i%4 == 0 && i > 0:
			warnAt = i + rng.Intn(4)
		}
		t := clock + i
		field("ts", fmt.Sprintf("2013-02-%02d %02d:%02d:%02d", day+t/86400, (t/3600)%24, (t/60)%60, t%60))
		comp := logComponents[rng.Intn(len(logComponents))]
		if i != warnAt {
			fmt.Fprintf(&b, " %s INFO: %s\n", comp, logInfo[rng.Intn(len(logInfo))])
			continue
		}
		msg := rng.Intn(len(logWarn))
		switch i {
		case 1:
			firstWarn = msg
		case 4:
			msg = (firstWarn + 1 + rng.Intn(len(logWarn)-1)) % len(logWarn)
		}
		fmt.Fprintf(&b, " %s WARN: ", comp)
		field("warnmsg", logWarn[msg])
		b.WriteByte('\n')
	}
	return logDoc{name: name, source: b.String(), golden: golden}
}

// regions resolves the golden byte ranges against a parsed copy of the log.
func (lg logDoc) regions(doc *textlang.Document) map[string][]region.Region {
	out := make(map[string][]region.Region, len(lg.golden))
	for color, spans := range lg.golden {
		for _, sp := range spans {
			out[color] = append(out[color], doc.Region(sp[0], sp[1]))
		}
	}
	return out
}

// expectedRecord is the oracle: the golden highlighting filled into the
// schema (Fig. 5) and rendered by the export layer. It never consults the
// synthesizer, so a learned program is checked against the annotations.
func expectedRecord(m *schema.Schema, doc engine.Document, golden map[string][]region.Region) (json.RawMessage, error) {
	cr := engine.Highlighting{}
	for _, fi := range m.Fields() {
		cr.Add(fi.Color(), golden[fi.Color()]...)
	}
	return export.JSONValue(engine.Fill(m, cr, doc.WholeRegion()))
}

// serveExcluded names the corpus tasks serve-scan leaves out, each with
// its reason. serve-scan learns every program from all golden instances
// as positive examples, and these tasks then extract more regions than
// golden; the interactive workflow fixes them with negative examples,
// which the refine workload exercises.
var serveExcluded = map[string]string{
	"numbertext": "qty selects 5 regions where golden has 3",
	"hg_ex2":     "dept selects 27 rows where golden has 6 (subtotal rows need negatives)",
	"hg_ex3":     "dept selects 23 rows where golden has 5 (subtotal rows need negatives)",
	"hg_ex12":    "dept selects 18 rows where golden has 4 (subtotal rows need negatives)",
	"hg_ex18":    "dept selects 23 rows where golden has 5 (subtotal rows need negatives)",
	"hg_ex26":    "dept selects 12 rows where golden has 3 (subtotal rows need negatives)",
	"hg_ex29":    "dept selects 18 rows where golden has 4 (subtotal rows need negatives)",
	"hg_ex39":    "dept selects 27 rows where golden has 6 (subtotal rows need negatives)",
	"Funded - F": "dept selects 9 rows where golden has 3 (subtotal rows need negatives)",
}

// registryName maps a task name onto the program registry's name alphabet
// [A-Za-z0-9_-].
func registryName(task string) string {
	return strings.Map(func(r rune) rune {
		if r == '-' || r == '_' || r >= '0' && r <= '9' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' {
			return r
		}
		return '_'
	}, task)
}
