//! The differential matrix's transaction and view dimensions, on the SQL
//! corpus of `matrix/mod.rs`: reads inside `BEGIN … ROLLBACK` after
//! staged writes must equal a twin catalog where those writes committed,
//! and reads a maintained materialized view serves after the same writes
//! must equal them too, at every workers × budget cell.

mod matrix;

use matrix::*;
use rcalcite_core::exec::Parallelism;

/// Inside `BEGIN … ROLLBACK`, after [`WRITES`] are staged, every read
/// equals the same read on a twin catalog where they committed; the
/// rollback leaves the catalog as it was.
#[test]
fn staged_writes_read_inside_a_transaction_equal_a_committed_twin() {
    let want = read_corpus(&cell_conn(&written_shop(), 1, None));
    let catalog = shop();
    let before = read_corpus(&cell_conn(&catalog, 1, None));
    for (workers, bytes) in cells().chain([(1, None)]) {
        let conn = cell_conn(&catalog, workers, bytes);
        conn.query("BEGIN").unwrap();
        for w in WRITES {
            conn.query(w).unwrap();
        }
        let got = read_corpus(&conn);
        conn.query("ROLLBACK").unwrap();
        for ((q, got), want) in CORPUS.iter().zip(got).zip(&want) {
            assert_eq!(
                &got, want,
                "in txn, workers={workers} budget={bytes:?}: {q}"
            );
        }
    }
    assert_eq!(read_corpus(&cell_conn(&catalog, 1, None)), before);
}

/// Maintained views created before [`WRITES`] commit serve their reads
/// afterwards (EXPLAIN says so), and every read equals the same read on
/// a catalog that never had the views.
#[test]
fn view_served_reads_equal_reads_without_the_view() {
    let want = read_corpus(&cell_conn(&written_shop(), 1, None));
    // Views register with the connection that creates them, so this
    // one connection moves through the cells.
    let mut conn = cell_conn(&shop(), 1, None);
    for (name, q) in VIEWS {
        let def = CORPUS[*q];
        let r = conn
            .query(&format!("CREATE MATERIALIZED VIEW {name} AS {def}"))
            .unwrap();
        let msg = r.rows[0][0].to_string();
        assert!(msg.contains("incrementally maintained"), "{name}: {msg}");
    }
    for w in WRITES {
        conn.query(w).unwrap();
    }
    for (workers, bytes) in cells().chain([(1, None)]) {
        conn.set_parallelism(Parallelism::new(workers, MORSEL));
        conn.set_memory_budget(budget(bytes));
        for (name, q) in VIEWS {
            let text = conn.explain(CORPUS[*q]).unwrap();
            let served = format!("-- mv: substituted mv.{name} (fresh)");
            assert!(text.contains(&served), "{text}");
        }
        let got = read_corpus(&conn);
        for ((q, got), want) in CORPUS.iter().zip(got).zip(&want) {
            let what = format!("with views, workers={workers} budget={bytes:?}: {q}");
            assert_eq!(sorted(got), sorted(want.clone()), "{what}");
        }
    }
}
