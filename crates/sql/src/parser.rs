//! Recursive-descent parser.

use crate::ast::{AggArg, ItemExpr, SelectItem, SelectStmt};
use crate::error::SqlError;
use crate::lexer::{tokenize, Token, TokenKind};
use adaptagg_model::AggFunc;

/// Parse one `SELECT` statement.
pub fn parse(sql: &str) -> Result<SelectStmt, SqlError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        len: sql.len(),
    };
    let stmt = p.select()?;
    if let Some(t) = p.peek() {
        return Err(SqlError::at(t.position, "trailing tokens after statement"));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    len: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> usize {
        self.peek().map(|t| t.position).unwrap_or(self.len)
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        match self.next() {
            Some(t) if t.keyword().as_deref() == Some(kw) => Ok(()),
            Some(t) => Err(SqlError::at(
                t.position,
                format!("expected {kw}, found '{}'", describe(&t.kind)),
            )),
            None => Err(SqlError::at(self.len, format!("expected {kw}, found end"))),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        self.peek()
            .and_then(|t| t.keyword())
            .is_some_and(|k| k == kw)
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, SqlError> {
        match self.next() {
            Some(t) => match t.kind {
                TokenKind::Ident(s) => Ok(s),
                other => Err(SqlError::at(
                    t.position,
                    format!("expected {what}, found '{}'", describe(&other)),
                )),
            },
            None => Err(SqlError::at(self.len, format!("expected {what}, found end"))),
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek().map(|t| &t.kind) == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<(), SqlError> {
        let here = self.here();
        match self.next() {
            Some(t) if t.kind == kind => Ok(()),
            Some(t) => Err(SqlError::at(
                t.position,
                format!("expected {what}, found '{}'", describe(&t.kind)),
            )),
            None => Err(SqlError::at(here, format!("expected {what}, found end"))),
        }
    }

    fn select(&mut self) -> Result<SelectStmt, SqlError> {
        self.expect_keyword("SELECT")?;
        let distinct = if self.peek_keyword("DISTINCT") {
            self.pos += 1;
            true
        } else {
            false
        };

        let mut items = vec![self.select_item()?];
        while self.eat(&TokenKind::Comma) {
            items.push(self.select_item()?);
        }

        self.expect_keyword("FROM")?;
        let table = self.expect_ident("a table name")?;

        let mut where_clause = Vec::new();
        if self.peek_keyword("WHERE") {
            self.pos += 1;
            where_clause.push(self.where_term()?);
            while self.peek_keyword("AND") {
                self.pos += 1;
                where_clause.push(self.where_term()?);
            }
        }

        let mut group_by = Vec::new();
        if self.peek_keyword("GROUP") {
            self.pos += 1;
            self.expect_keyword("BY")?;
            group_by.push(self.expect_ident("a grouping column")?);
            while self.eat(&TokenKind::Comma) {
                group_by.push(self.expect_ident("a grouping column")?);
            }
        }

        Ok(SelectStmt {
            distinct,
            items,
            table,
            where_clause,
            group_by,
        })
    }

    fn where_term(&mut self) -> Result<crate::ast::WhereTerm, SqlError> {
        let column = self.expect_ident("a filter column")?;
        let op = match self.next() {
            Some(Token {
                kind: TokenKind::Cmp(op),
                ..
            }) => op,
            Some(t) => {
                return Err(SqlError::at(
                    t.position,
                    format!("expected a comparison operator, found '{}'", describe(&t.kind)),
                ))
            }
            None => {
                return Err(SqlError::at(
                    self.len,
                    "expected a comparison operator, found end",
                ))
            }
        };
        let literal = match self.next() {
            Some(Token {
                kind: TokenKind::Int(i),
                ..
            }) => adaptagg_model::Value::Int(i),
            Some(Token {
                kind: TokenKind::Float(f),
                ..
            }) => adaptagg_model::Value::Float(f),
            Some(Token {
                kind: TokenKind::StrLit(s),
                ..
            }) => adaptagg_model::Value::Str(s.into()),
            Some(t) => {
                return Err(SqlError::at(
                    t.position,
                    format!("expected a literal, found '{}'", describe(&t.kind)),
                ))
            }
            None => return Err(SqlError::at(self.len, "expected a literal, found end")),
        };
        Ok(crate::ast::WhereTerm {
            column,
            op,
            literal,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        let name_pos = self.here();
        let name = self.expect_ident("a column or aggregate")?;

        // `NAME(` means an aggregate call; bare `NAME` is a column ref.
        let expr = if self.eat(&TokenKind::LParen) {
            let func = agg_func(&name)
                .ok_or_else(|| SqlError::at(name_pos, format!("unknown aggregate '{name}'")))?;
            let arg = if self.eat(&TokenKind::Star) {
                if func != AggFunc::Count {
                    return Err(SqlError::at(
                        name_pos,
                        format!("{}(*) is not valid; only COUNT takes '*'", func.name()),
                    ));
                }
                AggArg::Star
            } else {
                AggArg::Column(self.expect_ident("an aggregate input column")?)
            };
            self.expect(TokenKind::RParen, "')'")?;
            ItemExpr::Agg { func, arg }
        } else {
            ItemExpr::Column(name)
        };

        // Optional `AS alias`.
        let alias = if self.peek_keyword("AS") {
            self.pos += 1;
            Some(self.expect_ident("an alias")?)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }
}

fn describe(kind: &TokenKind) -> String {
    match kind {
        TokenKind::Ident(s) => s.clone(),
        TokenKind::Int(i) => i.to_string(),
        TokenKind::Float(f) => f.to_string(),
        TokenKind::StrLit(s) => format!("'{s}'"),
        TokenKind::Cmp(op) => op.symbol().into(),
        TokenKind::Star => "*".into(),
        TokenKind::Comma => ",".into(),
        TokenKind::LParen => "(".into(),
        TokenKind::RParen => ")".into(),
    }
}

fn agg_func(name: &str) -> Option<AggFunc> {
    match name.to_ascii_uppercase().as_str() {
        "COUNT" => Some(AggFunc::Count),
        "SUM" => Some(AggFunc::Sum),
        "AVG" => Some(AggFunc::Avg),
        "MIN" => Some(AggFunc::Min),
        "MAX" => Some(AggFunc::Max),
        "VAR_POP" => Some(AggFunc::VarPop),
        "STDDEV_POP" => Some(AggFunc::StddevPop),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_group_by_with_aggregates() {
        let s = parse("SELECT g, SUM(v), COUNT(*) FROM r GROUP BY g").unwrap();
        assert!(!s.distinct);
        assert_eq!(s.table, "r");
        assert_eq!(s.group_by, vec!["g"]);
        assert_eq!(s.items.len(), 3);
        assert_eq!(s.items[0].expr, ItemExpr::Column("g".into()));
        assert_eq!(
            s.items[1].expr,
            ItemExpr::Agg {
                func: AggFunc::Sum,
                arg: AggArg::Column("v".into())
            }
        );
        assert_eq!(
            s.items[2].expr,
            ItemExpr::Agg {
                func: AggFunc::Count,
                arg: AggArg::Star
            }
        );
    }

    #[test]
    fn parses_distinct() {
        let s = parse("select distinct a, b from t").unwrap();
        assert!(s.distinct);
        assert_eq!(s.items.len(), 2);
        assert!(s.group_by.is_empty());
    }

    #[test]
    fn parses_scalar_aggregate() {
        let s = parse("SELECT MAX(v) FROM r").unwrap();
        assert!(s.group_by.is_empty());
        assert_eq!(s.items.len(), 1);
    }

    #[test]
    fn parses_multi_column_group_by() {
        let s = parse("SELECT a, b, AVG(v) FROM r GROUP BY a, b").unwrap();
        assert_eq!(s.group_by, vec!["a", "b"]);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("Select Count(*) From r Group By g").is_ok());
    }

    #[test]
    fn parses_where_conjunction() {
        use adaptagg_model::{Compare, Value};
        let s =
            parse("SELECT g, SUM(v) FROM r WHERE v >= 10 AND tag = 'hot' GROUP BY g").unwrap();
        assert_eq!(s.where_clause.len(), 2);
        assert_eq!(s.where_clause[0].column, "v");
        assert_eq!(s.where_clause[0].op, Compare::Ge);
        assert_eq!(s.where_clause[0].literal, Value::Int(10));
        assert_eq!(s.where_clause[1].literal, Value::Str("hot".into()));
        assert_eq!(s.group_by, vec!["g"]);
    }

    #[test]
    fn where_without_group_by() {
        let s = parse("SELECT COUNT(*) FROM r WHERE v <> -3").unwrap();
        assert_eq!(s.where_clause.len(), 1);
        assert!(s.group_by.is_empty());
    }

    #[test]
    fn where_rejects_garbage() {
        assert!(parse("SELECT a FROM r WHERE").is_err());
        assert!(parse("SELECT a FROM r WHERE v").is_err());
        assert!(parse("SELECT a FROM r WHERE v =").is_err());
        assert!(parse("SELECT a FROM r WHERE v = w").is_err(), "col-vs-col unsupported");
        assert!(parse("SELECT a FROM r WHERE v = 1 AND").is_err());
    }

    #[test]
    fn rejects_unknown_aggregate() {
        let e = parse("SELECT MEDIAN(v) FROM r").unwrap_err();
        assert!(e.message.contains("MEDIAN"));
    }

    #[test]
    fn rejects_star_on_non_count() {
        let e = parse("SELECT SUM(*) FROM r").unwrap_err();
        assert!(e.message.contains("COUNT"));
    }

    #[test]
    fn rejects_trailing_tokens() {
        let e = parse("SELECT a FROM r GROUP BY a a").unwrap_err();
        assert!(e.message.contains("trailing"));
    }

    #[test]
    fn rejects_missing_from() {
        assert!(parse("SELECT a").is_err());
        assert!(parse("SELECT a GROUP BY a").is_err());
    }

    #[test]
    fn rejects_empty_group_by() {
        assert!(parse("SELECT a FROM r GROUP BY").is_err());
    }

    #[test]
    fn positions_are_reported() {
        let e = parse("SELECT a FROM r GROUP UP a").unwrap_err();
        assert_eq!(e.position, Some(22));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The parser returns errors, never panics, on arbitrary input.
        #[test]
        fn prop_parser_never_panics(input in ".{0,80}") {
            let _ = parse(&input);
        }

        /// Well-formed single-aggregate queries always parse.
        #[test]
        fn prop_well_formed_queries_parse(
            col in "[a-z][a-z0-9_]{0,10}",
            table in "[a-z][a-z0-9_]{0,10}",
            func in prop_oneof![
                Just("SUM"), Just("AVG"), Just("MIN"), Just("MAX"),
                Just("VAR_POP"), Just("STDDEV_POP"), Just("COUNT"),
            ],
        ) {
            let sql = format!("SELECT {col}, {func}({col}) FROM {table} GROUP BY {col}");
            let stmt = parse(&sql);
            // Keywords used as identifiers legitimately fail; everything
            // else must parse.
            let reserved = ["select", "distinct", "from", "group", "by"];
            if reserved.contains(&col.as_str()) || reserved.contains(&table.as_str()) {
                return Ok(());
            }
            let stmt = stmt.unwrap();
            prop_assert_eq!(stmt.group_by, vec![col.clone()]);
            prop_assert_eq!(stmt.table, table);
        }
    }
}
