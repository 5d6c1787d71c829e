-- SQL DML on a view's base table: the view turns stale and stops
-- answering. Before the stale flag, the UPDATE below left matseq
-- unchanged and the (2,1) query kept answering pos 2 = 60 through a
-- direct rewrite of matseq, where the base table gives 1030; the INSERT
-- left it at 8 rows, where the base gives 9.
CREATE TABLE seq (pos INTEGER PRIMARY KEY, val DOUBLE);
INSERT INTO seq VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60), (7, 70), (8, 80);
CREATE MATERIALIZED VIEW matseq AS SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) FROM seq;
-- expect-rows: (1, 30) (2, 60) (3, 100) (4, 140)
-- expect-rows: (5, 180) (6, 220) (7, 260) (8, 210)
SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) FROM seq ORDER BY pos;
UPDATE seq SET val = 1000 WHERE pos = 3;
-- expect-rows: (1, 30) (2, 1030) (3, 1070) (4, 1110)
-- expect-rows: (5, 1150) (6, 220) (7, 260) (8, 210)
SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) FROM seq ORDER BY pos;
INSERT INTO seq VALUES (9, 90);
-- expect-rows: (1, 30) (2, 1030) (3, 1070) (4, 1110)
-- expect-rows: (5, 1150) (6, 220) (7, 260) (8, 300) (9, 240)
SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) FROM seq ORDER BY pos;
