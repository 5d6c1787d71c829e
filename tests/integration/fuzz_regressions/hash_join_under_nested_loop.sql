-- equi-join repro: a hash join on the left side of a nested-loop join.
-- The nested loop pulls the hash join's vectors and walks their lanes
-- as rows; the answer must be six rows (a.k, b.y, c.z), in this order,
-- and the same six under LEFT JOIN b (every a.k has a partner). When the
-- nested loop still pulled rows, the hash join answered that pull with
-- no rows. The .cc twin (UnderNestedLoopJoinTest in
-- tests/exec/vector_exec_test.cc) pins the rows and the plans.
CREATE TABLE a (k INTEGER, x INTEGER);
CREATE TABLE b (k INTEGER, y INTEGER);
CREATE TABLE c (z INTEGER);
INSERT INTO a VALUES (1, 10), (2, 20), (3, 30);
INSERT INTO b VALUES (1, 100), (2, 200), (3, 300);
INSERT INTO c VALUES (5), (25);
-- expect-rows: (1, 100, 5) (1, 100, 25) (2, 200, 5)
-- expect-rows: (2, 200, 25) (3, 300, 5) (3, 300, 25)
SELECT a.k, b.y, c.z FROM a JOIN b ON a.k = b.k JOIN c ON a.x <> c.z;
-- expect-rows: (1, 100, 5) (1, 100, 25) (2, 200, 5)
-- expect-rows: (2, 200, 25) (3, 300, 5) (3, 300, 25)
SELECT a.k, b.y, c.z FROM a LEFT JOIN b ON a.k = b.k JOIN c ON a.x <> c.z;
