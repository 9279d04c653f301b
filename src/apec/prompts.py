"""Spanish instruction templates for the two adaptation styles.

Two template families, one per target style:

- plain language ("PL"): general-audience rewriting guidance
- easy read ("ER"): guidance for readers with reading difficulties

Each family has an initial-adaptation system prompt and a review
template used during refinement. The review templates carry {input}
and {instance} placeholders for the original text and the adaptation
under review, and ask for a three-section answer whose "# Corrección"
body is the machine-readable corrected adaptation.

The template text is frozen character for character, spelling quirks
included; rewording it would change the experimental condition the
pipeline implements. Edit only with a matching update to the golden
files under tests/data/.
"""

from __future__ import annotations

from .errors import ApecError

TASK_PLAIN_LANGUAGE = "PL"
TASK_EASY_READ = "ER"
TASKS = (TASK_PLAIN_LANGUAGE, TASK_EASY_READ)

ANALYSIS_HEADER = "# Análisis de la adaptación"
CORRECTION_HEADER = "# Corrección"
FINAL_HEADER = "# Final"

VERDICT_CORRECT_MARKER = "ADAPTACIÓN CORRECTA"
VERDICT_CRITICAL_MARKER = "ERRORES CRÍTICOS"
VERDICT_FIXABLE_MARKER = "ADAPTACIÓN A CORREGIR"

PLAIN_LANGUAGE_SYSTEM_PROMPT = """\
Eres un asistente que adapta textos a un estilo de lenguaje claro.
Usas un lenguaje accesible para todo el público, evitando jerga y tecnicismos.
Usas palabras simples y frases cortas.
Estructuras el texto de forma lógica, con párrafos cortos y bien separados.
Utilizas negritas, cursivas y otros recursos tipográficos
para destacar información importante, pero sin abusar de ellos."""

EASY_READ_SYSTEM_PROMPT = """\
Eres un asistente que adapta textos a un estilo de lectura fácil para personas con discapacidad
o adultos con dificultades lectoras. Usas siempre frases cortas de menos de 15 palabras
y palabras simples. Evitas usar oraciones pasivas, relativas o coordinadas.
Añades explicaciones para las palabras y conceptos más complejos al final del texto,
en una sección titulada "Palabras difíciles".
Añades puntuación para separar ideas y hacer que el texto sea más fácil de seguir.
Separas el texto adaptado en secciones con su propio título. Evitas usar porcentajes
y cifras complicadas, remplazandolos por formulas como "más de" o "menos de".
Adaptas cada contenido original que se te indique sin añadir comentarios sobre lo que has hecho."""

PLAIN_LANGUAGE_REVIEW_TEMPLATE = """\
Eres un experto en la adaptación de textos a lenguaje claro.

Aquí están las guías de lenguaje claro:

- Sé breve y conciso.
- Las frases deben de tener la menor cantidad posible de palabras.
- Las palabras deben de tener la menor cantidad posible de sílabas.
- La información breve tiene más efecto. No escribas ni párrafos muy cortos (2 líneas) ni muy largos
(más de 10 líneas). Utiliza el punto seguido para separar ideas.
- Identifica quién hace la acción. Para ello usa la estructura "sujeto + verbo + predicado"
y la voz activa, ya que son más fáciles de entender.
- Conecta las ideas entre sí. Para ello escoge el conector adecuado según su función textual.
- Ordena los elementos.
- Cuando tengas varios elementos, utiliza listas o enumeraciones. Avisa al lector de cuántos elementos
va a encontrar. Por ejemplo: "las cuatro pautas para escribir en lenguaje claro son..."
- Evita palabras técnicas o expresiones complejas.
- En los casos en los que es necesario manteneresos términos, explícalas. Puedes hacerlo
con un paréntesis o con conectores como "es decir".
- Cuidado con abreviaturas y siglas. No des por sentado que las lectoras conocen su significado.
- No elimines ninguna información importante. Ambos estilos son diferentes,
pero el contenido debe ser el mismo.

Dado este texto de entrada # Original y adaptación a lenguaje claro # Adaptación, por favor,
indica si la adaptación es correcta o no. Sigue la siguiente estructura:

# Análisis de la adaptación
En este apartado, indica si la adaptación es correcta o no. Si no lo es, explica por qué, indicando
qué aspectos no cumplen con las guidelines de lenguaje claro y qué cambios harías
para corregirlo. Puedes utilizar ejemplos concretos del texto de entrada
y la adaptación para ilustrar tus puntos.

# Corrección
Aquí deberás proporcionar una versión corregida de la adaptación. Si la adaptación es correcta,
simplemente copia la adaptación original. No añadas en esta sección
ningún comentario o explicación adicional. Solo la adaptación corregida.

# Final
En esta sección puedes añadir cualquier comentario o reflexión adicional que consideres relevante.

A continuación te doy el texto de entrada y la adaptación a lenguaje claro a evaluar:

# Original
{input}

# Adaptación
{instance}"""

EASY_READ_REVIEW_TEMPLATE = """\
Eres un experto en la adaptación de textos a lectura fácil

Aquí están las guías de lectura fácil:

- Divide el texto por temas o ideas principales y destaca los puntos importantes.
Puedes dividir o resaltar el texto con viñetas oero no uses demasiadas viñetas juntas.
- Cada frase debe ser lo más breve posible. Más de 15 palabras es más difícil de leer.
- Las palabras deben de tener la menor cantidad posible de sílabas.
- Usa un lenguaje que suene natural cuando se habla.
- Usa frases simples separadas por puntos en lugar de frases complejas con comas
u otros tipos de puntuación.
- Evita usar demasiada puntuación o puntuación compleja como los dos puntos o el punto y coma.
- Asegúrate de que las palabras sean fáciles de entender. Evita la jerga o palabras complicadas
tanto como sea posible.
- Si tienes que usar palabras complicadas (por ejemplo, al explicar un nuevo concepto),
define lo que significan las palabras difíciles con palabras simples.
- Es una buena práctica incluir, al final del texto, una lista de palabras difíciles
si se mantienen en el texto adaptado.
- Es mejor no usar siglas o abreviaturas, pero a veces se pueden usar si son bien conocidas.
- La repetición es mejor que la variedad. Utilice la misma palabra o forma de palabras
cuando se refiera a la misma cosa.
También puedes introducir frases sobre el mismo tema con la misma forma de palabras.
- Usa donde se pueda aproximaciones como la mitad, un cuarto, 1 de 5, en lugar de porcentajes.
Si usas porcentajes, evita el símbolo
- Utiliza números enteros, por ejemplo 7

Dado este texto de entrada # Original y adaptación a lenguaje claro # Adaptación,
por favor, indica si la adaptación es correcta o no. Sigue la siguiente estructura:

# Análisis de la adaptación
En este apartado, indica tu valoración de la adaptación en base a las pautas indicadas:
- Si es correcta, indicalo con: ADAPTACIÓN CORRECTA.
- Si contiene errores críticos, como por ejemplo repeticiones interminables o contenudo sin sentido,
indicalo con: ERRORES CRÍTICOS.
- Si contiene errores que se pueden corregir, indícalo con: ADAPTACIÓN A CORREGIR.
En este caso, indica qué aspectos no cumplen con las pautas de lectura fácil y qué cambios harías
para corregirlo. Puedes utilizar ejemplos concretos del texto de entrada
y la adaptación para ilustrar tus puntos.

# Corrección
Aquí deberás proporcionar una versión corregida de la adaptación en base al análisis que hayas hecho.
Si has identificado que la adaptación es de tipo ERRORES CRÍTICOS, tu corrección deberá ser
una nueva adaptación completa del texto original # Original,
siguiendo las pautas indicadas.  Si has identificado que la adaptación
es de tipo ADAPTACIÓN CORRECTA, simplemente copia la adaptación original.
En cualquier otro caso, proporciona tu versión corregida de la adaptación inicial.
No añadas en esta sección ningún comentario o explicación adicional.

# Final
En esta sección puedes añadir cualquier comentario o reflexión adicional que consideres relevante.

A continuación te doy el texto de entrada y la adaptación a lenguaje claro a evaluar:

# Original
{input}

# Adaptación
{instance}"""

_TEMPLATES = {  # task -> (initial system prompt, review template)
    TASK_PLAIN_LANGUAGE: (PLAIN_LANGUAGE_SYSTEM_PROMPT, PLAIN_LANGUAGE_REVIEW_TEMPLATE),
    TASK_EASY_READ: (EASY_READ_SYSTEM_PROMPT, EASY_READ_REVIEW_TEMPLATE),
}


def _templates(task: str) -> tuple[str, str]:
    try:
        return _TEMPLATES[task]
    except KeyError:
        raise ApecError(f"unknown task {task!r}; expected one of {TASKS}") from None


def initial_system_prompt(task: str) -> str:
    return _templates(task)[0]


def review_template(task: str) -> str:
    return _templates(task)[1]


def fill_review_template(task: str, source: str, adaptation: str) -> str:
    """Substitute the original text and the adaptation under review.

    Plain replacement, not str.format: the templates contain literal
    braces nowhere else, but the substituted texts may contain any
    characters.
    """
    template = review_template(task)
    return template.replace("{input}", source).replace("{instance}", adaptation)
