//! Lx: the miniature imperative language used by the LDX reproduction.
//!
//! The original LDX paper implements its counter-instrumentation pass inside
//! LLVM 3.4 and evaluates on C programs. This workspace substitutes a small,
//! hermetic C-like language — **Lx** — so that the whole pipeline (parse →
//! lower to a CFG → instrument → dually execute) is reproducible as a pure
//! Rust library. Everything the instrumentation scheme cares about is
//! present: functions, branches, loops, recursion, indirect calls through
//! function references, and *syscalls* (virtual OS operations exposed as
//! builtins).
//!
//! # Example
//!
//! ```
//! use ldx_lang::parse;
//!
//! let program = parse(r#"
//!     fn main() {
//!         let fd = open("employee.txt", 0);
//!         let title = read(fd, 16);
//!         if (title == "MANAGER") {
//!             write(1, "manager\n");
//!         }
//!         close(fd);
//!     }
//! "#)?;
//! assert_eq!(program.functions().count(), 1);
//! # Ok::<(), ldx_lang::LangError>(())
//! ```

mod ast;
mod builtins;
mod error;
mod lexer;
mod parser;
pub mod pretty;
mod resolve;
mod token;

pub use ast::{
    BinaryOp, Block, Expr, ExprKind, Function, Item, LValue, Program, Stmt, StmtKind, UnaryOp,
};
pub use builtins::{builtin, Builtin, BuiltinKind, LibFn, Syscall, SYSCALL_COUNT};
pub use error::{LangError, Span};
pub use lexer::{lex, Lexer};
pub use parser::Parser;
pub use resolve::{resolve, ResolvedProgram};
pub use token::{Token, TokenKind};

/// Parses Lx source into a syntactically valid [`Program`].
///
/// This performs lexing and parsing only; call [`resolve()`] afterwards (or use
/// [`compile`]) to check name binding, arities and assignability.
///
/// # Errors
///
/// Returns a [`LangError`] describing the first lexical or syntactic problem,
/// including its source location.
pub fn parse(source: &str) -> Result<Program, LangError> {
    let tokens = lex(source)?;
    Parser::new(tokens).parse_program()
}

/// Parses **and resolves** Lx source: the one-call frontend entry point.
///
/// # Errors
///
/// Returns a [`LangError`] for lexical, syntactic, or semantic problems
/// (unknown names, bad builtin arities, assignment to functions, `break`
/// outside loops, and so on).
pub fn compile(source: &str) -> Result<ResolvedProgram, LangError> {
    resolve(parse(source)?)
}
