-- INTEGER arithmetic past int64: 4 * 2^62 = 2^64 does not fit, and the
-- engine must say so instead of wrapping (signed overflow is undefined
-- behaviour in C++, so a wrapped answer was never guaranteed either).
-- Plain projection (vector and row evaluators) and the band join's
-- folded SUM(4 * s2.v), whose candidate walk multiplies each cell by
-- the leaf's factor, all raise "integer overflow". The .cc twin
-- (integer_overflow_test.cc) runs both execution modes.
CREATE TABLE t (pos INTEGER, v INTEGER);
INSERT INTO t VALUES (1, 4611686018427387904), (2, 1), (3, 2);
-- expect-error: integer overflow
SELECT pos, 4 * v FROM t;
SELECT pos, 4 * v FROM t WHERE pos > 1;
-- expect-error: integer overflow
SELECT s1.pos, SUM(4 * s2.v) FROM t s1, t s2 WHERE s2.pos BETWEEN s1.pos - 1 AND s1.pos + 1 GROUP BY s1.pos;
