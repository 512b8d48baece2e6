//! # rcalcite-sql
//!
//! SQL front end and back end for rcalcite: lexer, parser, validator and
//! SQL-to-rel converter (the query-language path of Figure 1), the
//! rel-to-SQL unparser with pluggable dialects (§3/§8.2), and the embedded
//! [`connection::Connection`] facade standing in for Calcite's JDBC driver
//! (Avatica).
//!
//! Supported SQL: ANSI SELECT (joins, grouping, HAVING, set operations,
//! subqueries, ORDER BY/LIMIT, window functions) plus the paper's
//! extensions — `SELECT STREAM`, `TUMBLE` grouping (§7.2), `[]` item
//! access on semi-structured data (§7.1), and user-defined functions such
//! as the geospatial `ST_*` family (§7.3).

pub mod ast;
pub mod connection;
pub mod converter;
pub mod lexer;
pub mod parser;
pub mod prepared;
pub mod unparser;
pub mod validator;

pub use connection::{Connection, QueryResult};
pub use converter::query_to_rel;
pub use parser::parse;
pub use prepared::{ConnectionBuilder, PreparedStatement, ResultSet};
pub use unparser::{to_sql, Dialect, MySqlDialect, PostgresDialect};
