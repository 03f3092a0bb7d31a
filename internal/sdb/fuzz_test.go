package sdb

import "testing"

// FuzzParseSQL asserts the parser's contract under arbitrary input: it
// never panics, and it returns either an error or a non-nil statement.
// It promises no round trip: exprString, which EXPLAIN renders with,
// does not escape quotes.
func FuzzParseSQL(f *testing.F) {
	seeds := []string{
		"SELECT 1",
		"SELECT * FROM studies",
		"SELECT s.id, count(*) FROM studies s WHERE s.modality = 'PET' GROUP BY s.id ORDER BY s.id LIMIT 3 OFFSET 1",
		"SELECT a.x FROM t a, u b WHERE a.id = b.id AND intersect_up(a.r, b.r)",
		"INSERT INTO studies VALUES (1, 'MRI', NULL)",
		"CREATE TABLE t (id INT, r REGION)",
		"SELECT x FROM t WHERE v > ? AND v < ?",
		"SELECT (1 + 2) * -3, 'it''s', 2.5e-1 FROM t",
		"EXPLAIN ANALYZE SELECT * FROM t WHERE contains(r, 1, 2, 3)",
		"SELECT",
		"SELECT * FROM",
		"'unterminated",
		"SELECT \x00 FROM \xff",
		"UPDATE t SET a = 1 WHERE id = ?",
		"SELECT f(*, a) FROM t",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil {
			return
		}
		if stmt == nil {
			t.Fatalf("Parse(%q): nil statement with nil error", input)
		}
	})
}
