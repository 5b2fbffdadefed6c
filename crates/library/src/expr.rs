//! Genlib Boolean expression parser.
//!
//! Grammar (classic genlib):
//!
//! ```text
//! expr   := term ('+' term)*
//! term   := factor (('*')? factor)*        -- juxtaposition is AND
//! factor := '!' factor | atom | atom '\''  -- prefix or postfix negation
//! atom   := identifier | CONST0 | CONST1 | '(' expr ')'
//! ```

use powder_logic::{TruthTable, MAX_TT_VARS};
use std::fmt;

/// Error produced while parsing a genlib Boolean expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExprError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset in the input where the failure occurred.
    pub position: usize,
}

impl fmt::Display for ParseExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.position)
    }
}

impl std::error::Error for ParseExprError {}

/// A parsed expression: the function and the input names in variable order
/// (order of first appearance in the source text).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedExpr {
    /// The function over the inputs.
    pub function: TruthTable,
    /// Input names; `inputs[i]` is variable `i` of `function`.
    pub inputs: Vec<String>,
}

#[derive(Debug, Clone, PartialEq)]
enum Ast {
    Const(bool),
    Var(usize),
    Not(Box<Ast>),
    And(Box<Ast>, Box<Ast>),
    Or(Box<Ast>, Box<Ast>),
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    inputs: Vec<String>,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseExprError {
        ParseExprError {
            message: message.into(),
            position: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn expr(&mut self) -> Result<Ast, ParseExprError> {
        let mut lhs = self.term()?;
        while self.peek() == Some(b'+') {
            self.bump();
            let rhs = self.term()?;
            lhs = Ast::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Ast, ParseExprError> {
        let mut lhs = self.factor()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.bump();
                    let rhs = self.factor()?;
                    lhs = Ast::And(Box::new(lhs), Box::new(rhs));
                }
                // Juxtaposition: another factor starts directly.
                Some(c) if c == b'!' || c == b'(' || c.is_ascii_alphanumeric() || c == b'_' => {
                    let rhs = self.factor()?;
                    lhs = Ast::And(Box::new(lhs), Box::new(rhs));
                }
                _ => break,
            }
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Ast, ParseExprError> {
        match self.peek() {
            Some(b'!') => {
                self.bump();
                Ok(Ast::Not(Box::new(self.factor()?)))
            }
            _ => {
                let mut atom = self.atom()?;
                while self.peek() == Some(b'\'') {
                    self.bump();
                    atom = Ast::Not(Box::new(atom));
                }
                Ok(atom)
            }
        }
    }

    fn atom(&mut self) -> Result<Ast, ParseExprError> {
        match self.peek() {
            Some(b'(') => {
                self.bump();
                let e = self.expr()?;
                if self.bump() != Some(b')') {
                    return Err(self.error("expected ')'"));
                }
                Ok(e)
            }
            Some(c) if c.is_ascii_alphanumeric() || c == b'_' => {
                let start = self.pos;
                while self.pos < self.src.len()
                    && (self.src[self.pos].is_ascii_alphanumeric()
                        || self.src[self.pos] == b'_'
                        || self.src[self.pos] == b'[' // bus pins like a[0]
                        || self.src[self.pos] == b']')
                {
                    self.pos += 1;
                }
                let name = std::str::from_utf8(&self.src[start..self.pos])
                    .expect("ascii")
                    .to_string();
                match name.as_str() {
                    "CONST0" => Ok(Ast::Const(false)),
                    "CONST1" => Ok(Ast::Const(true)),
                    _ => {
                        let idx = match self.inputs.iter().position(|n| n == &name) {
                            Some(i) => i,
                            None if self.inputs.len() == MAX_TT_VARS => {
                                return Err(self.error(format!(
                                    "more than {MAX_TT_VARS} inputs (a truth table's limit)"
                                )));
                            }
                            None => {
                                self.inputs.push(name);
                                self.inputs.len() - 1
                            }
                        };
                        Ok(Ast::Var(idx))
                    }
                }
            }
            Some(_) => Err(self.error("expected an identifier, '(' or '!'")),
            None => Err(self.error("unexpected end of expression")),
        }
    }
}

fn eval(ast: &Ast, vars: usize) -> TruthTable {
    match ast {
        Ast::Const(false) => TruthTable::zero(vars),
        Ast::Const(true) => TruthTable::one(vars),
        Ast::Var(i) => TruthTable::var(*i, vars),
        Ast::Not(a) => !eval(a, vars),
        Ast::And(a, b) => eval(a, vars) & eval(b, vars),
        Ast::Or(a, b) => eval(a, vars) | eval(b, vars),
    }
}

/// Parses a genlib Boolean expression.
///
/// # Errors
///
/// Returns [`ParseExprError`] on malformed input (unbalanced parentheses,
/// stray operators, trailing garbage) and on more inputs than a
/// [`TruthTable`] holds.
///
/// # Example
///
/// ```
/// use powder_library::expr::parse_expr;
///
/// let parsed = parse_expr("!(a * b) + c'")?;
/// assert_eq!(parsed.inputs, vec!["a", "b", "c"]);
/// assert!(parsed.function.eval(0b000)); // !(0&0) -> true
/// # Ok::<(), powder_library::expr::ParseExprError>(())
/// ```
pub fn parse_expr(src: &str) -> Result<ParsedExpr, ParseExprError> {
    let mut p = Parser {
        src: src.as_bytes(),
        pos: 0,
        inputs: Vec::new(),
    };
    let ast = p.expr()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.error("trailing characters after expression"));
    }
    let vars = p.inputs.len();
    Ok(ParsedExpr {
        function: eval(&ast, vars),
        inputs: p.inputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_and_or() {
        let e = parse_expr("a*b + c").unwrap();
        assert_eq!(e.inputs, vec!["a", "b", "c"]);
        for m in 0..8u64 {
            let (a, b, c) = (m & 1 != 0, m & 2 != 0, m & 4 != 0);
            assert_eq!(e.function.eval(m), (a && b) || c);
        }
    }

    #[test]
    fn juxtaposition_is_and() {
        let e = parse_expr("a b").unwrap();
        assert_eq!(e.function, TruthTable::var(0, 2) & TruthTable::var(1, 2));
    }

    #[test]
    fn negation_styles() {
        let pre = parse_expr("!a").unwrap();
        let post = parse_expr("a'").unwrap();
        assert_eq!(pre.function, post.function);
        let double = parse_expr("a''").unwrap();
        assert_eq!(double.function, TruthTable::var(0, 1));
    }

    #[test]
    fn nested_parens_and_demorgan() {
        let e = parse_expr("!(a + b)").unwrap();
        let f = parse_expr("!a * !b").unwrap();
        assert_eq!(e.function, f.function);
    }

    #[test]
    fn aoi21() {
        let e = parse_expr("!(a*b + c)").unwrap();
        assert_eq!(e.inputs.len(), 3);
        for m in 0..8u64 {
            let (a, b, c) = (m & 1 != 0, m & 2 != 0, m & 4 != 0);
            assert_eq!(e.function.eval(m), !((a && b) || c));
        }
    }

    #[test]
    fn constants() {
        assert!(parse_expr("CONST1").unwrap().function.is_one());
        assert!(parse_expr("CONST0").unwrap().function.is_zero());
        assert!(parse_expr("CONST1").unwrap().inputs.is_empty());
    }

    #[test]
    fn xor_via_sop() {
        let e = parse_expr("a*!b + !a*b").unwrap();
        assert_eq!(e.function, TruthTable::var(0, 2) ^ TruthTable::var(1, 2));
    }

    #[test]
    fn errors() {
        assert!(parse_expr("").is_err());
        assert!(parse_expr("(a").is_err());
        assert!(parse_expr("a +").is_err());
        assert!(parse_expr("a ) b").is_err());
        assert!(parse_expr("*a").is_err());
    }

    #[test]
    fn too_many_inputs_is_an_error() {
        let names = |n: usize| (0..n).map(|i| format!("x{i}")).collect::<Vec<_>>();
        let widest = parse_expr(&names(MAX_TT_VARS).join("+")).unwrap();
        assert_eq!(widest.inputs.len(), MAX_TT_VARS);
        let err = parse_expr(&names(MAX_TT_VARS + 1).join("+")).unwrap_err();
        assert!(err.message.contains("more than"), "{err}");
    }

    #[test]
    fn input_order_is_first_appearance() {
        let e = parse_expr("c + a*c + b").unwrap();
        assert_eq!(e.inputs, vec!["c", "a", "b"]);
    }
}
