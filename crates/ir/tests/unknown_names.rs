//! A name that arrives from outside the compiler — a `--set` override, a
//! sweep grid axis, a serve client's scenario key — is resolved against
//! the model's states without being interned: unknown names must not
//! accumulate in the process-global interner of a long-running service.
//! One test in its own binary, so no other test interns concurrently.

use om_expr::Symbol;

#[test]
fn unknown_override_names_leave_the_interner_unchanged() {
    let flat = om_lang::compile(
        "model M; Real x(start=1.0); Real v(start=0.0); \
         equation der(x) = v; der(v) = -x; end M;",
    )
    .expect("compile");
    let mut ir = om_ir::causalize(&flat).expect("causalize");
    assert_eq!(ir.find_state("v"), Some(1));
    assert!(ir.set_start("x", 2.0));

    let before = Symbol::interned();
    for k in 0..10_000 {
        let name = format!("client_state_{k}");
        assert_eq!(ir.find_state(&name), None);
        assert!(!ir.set_start(&name, 1.0));
    }
    assert_eq!(Symbol::interned(), before);
    assert_eq!(ir.initial_state(), vec![2.0, 0.0]);
}
